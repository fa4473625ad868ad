// Package memtrace defines the memory-trace representation that links
// the analytical (Timeloop-like) half of the hybrid framework to the
// cycle-level simulator half, mirroring Fig. 6 of the LLaMCAT paper.
//
// A trace is a set of thread blocks; each thread block is an ordered
// list of instructions executed by one instruction window of a vector
// core. Instructions are either vector memory accesses (a contiguous
// span of bytes, split into cache-line requests when executed) or
// compute delays (a number of non-memory cycles).
package memtrace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates instruction types.
type Kind uint8

// Instruction kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindCompute
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "LD"
	case KindStore:
		return "ST"
	case KindCompute:
		return "CP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Inst is one trace instruction. For memory kinds, Addr/Width describe
// the accessed byte span (the vector access). For compute, Cycles is
// the busy time of the issuing window.
type Inst struct {
	Kind   Kind
	Addr   uint64 // byte address of the first element (memory kinds)
	Width  uint32 // bytes touched by the vector access (memory kinds)
	Cycles uint32 // busy cycles (compute kind)
}

// Meta carries the loop-space coordinates a thread block covers; used
// for debugging, locality analysis and scheduling diagnostics.
//
// Stream identifies the decode stream (serving-scenario batch slot)
// the block belongs to. Single-operator traces leave it zero; the
// serving engine composes per-request traces into one multi-stream
// trace and stamps each block with its slot so the dispatcher can
// spread streams across cores and diagnostics can attribute traffic.
type Meta struct {
	Group  int // head group index h
	QHead  int // query head index g within the group
	TileLo int // first sequence position covered
	TileHi int // one past the last sequence position covered
	Stream int // decode stream (batch slot); 0 for single-stream traces
}

// ThreadBlock is the unit of work dispatched to an instruction window
// ("thread block" in GPU terms, per Section 3.1 of the paper).
type ThreadBlock struct {
	ID    int
	Meta  Meta
	Insts []Inst
}

// MemInsts counts the memory instructions in the block.
func (tb *ThreadBlock) MemInsts() int {
	n := 0
	for _, in := range tb.Insts {
		if in.Kind != KindCompute {
			n++
		}
	}
	return n
}

// Lines returns the number of distinct cache lines the block touches,
// assuming the given line size. Used by locality diagnostics.
func (tb *ThreadBlock) Lines(lineBytes int) int {
	seen := make(map[uint64]struct{})
	lb := uint64(lineBytes)
	for _, in := range tb.Insts {
		if in.Kind == KindCompute {
			continue
		}
		first := in.Addr / lb
		last := (in.Addr + uint64(in.Width) - 1) / lb
		for l := first; l <= last; l++ {
			seen[l] = struct{}{}
		}
	}
	return len(seen)
}

// Trace is an ordered pool of thread blocks for one operator
// execution. Order matters: the global scheduler dispatches blocks in
// this order, which encodes the dataflow's spatial proximity.
type Trace struct {
	Name   string
	Blocks []*ThreadBlock
}

// NewTrace returns a trace named name over blocks, in order.
func NewTrace(name string, blocks []ThreadBlock) *Trace {
	t := &Trace{Name: name, Blocks: make([]*ThreadBlock, len(blocks))}
	for i := range blocks {
		t.Blocks[i] = &blocks[i]
	}
	return t
}

// Slab is caller-owned storage for generated thread blocks: one slab
// of block headers and one of instructions, which the trace generators
// of internal/dataflow append to. Reset empties it without releasing
// either slab, so a slab that has held a trace at least as large takes
// the next one without allocating. Blocks stay valid until the slab is
// Reset and written again.
type Slab struct {
	blocks []ThreadBlock
	insts  []Inst
}

// Reset empties the slab, keeping its storage.
func (s *Slab) Reset() { s.blocks, s.insts = s.blocks[:0], s.insts[:0] }

// Blocks returns the blocks in the slab, in the order they were added.
func (s *Slab) Blocks() []ThreadBlock { return s.blocks }

// Reserve makes room for blocks more blocks holding insts more
// instructions in all, so that adding them does not reallocate.
func (s *Slab) Reserve(blocks, insts int) {
	s.blocks = slices.Grow(s.blocks, blocks)
	s.insts = slices.Grow(s.insts, insts)
}

// Block adds a block with the given ID and metadata whose instruction
// slice has room for n instructions, and returns it for the caller to
// append them to before it adds the next block.
func (s *Slab) Block(id int, meta Meta, n int) *ThreadBlock {
	s.insts = slices.Grow(s.insts, n)
	base := len(s.insts)
	s.insts = s.insts[:base+n]
	s.blocks = append(s.blocks, ThreadBlock{ID: id, Meta: meta, Insts: s.insts[base : base : base+n]})
	return &s.blocks[len(s.blocks)-1]
}

// TotalInsts sums instruction counts over all blocks.
func (t *Trace) TotalInsts() int {
	n := 0
	for _, tb := range t.Blocks {
		n += len(tb.Insts)
	}
	return n
}

// TotalMemInsts sums memory instruction counts over all blocks.
func (t *Trace) TotalMemInsts() int {
	n := 0
	for _, tb := range t.Blocks {
		n += tb.MemInsts()
	}
	return n
}

// Footprint returns the number of distinct lines touched by the whole
// trace times the line size — the working set in bytes.
func (t *Trace) Footprint(lineBytes int) int64 {
	seen := make(map[uint64]struct{})
	lb := uint64(lineBytes)
	for _, tb := range t.Blocks {
		for _, in := range tb.Insts {
			if in.Kind == KindCompute {
				continue
			}
			first := in.Addr / lb
			last := (in.Addr + uint64(in.Width) - 1) / lb
			for l := first; l <= last; l++ {
				seen[l] = struct{}{}
			}
		}
	}
	return int64(len(seen)) * int64(lineBytes)
}

// WriteTo serialises the trace in a line-oriented text format:
//
//	# trace <name>
//	tb <id> <group> <qhead> <tilelo> <tilehi> <stream>
//	LD <addr-hex> <width>
//	ST <addr-hex> <width>
//	CP <cycles>
//
// The format is the analogue of the paper's trace files feeding
// Ramulator2 and is consumed by cmd/tracegen and ReadTrace. ReadTrace
// also accepts the pre-serving six-field tb header (stream column
// omitted, meaning stream 0).
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "# trace %s\n", t.Name)); err != nil {
		return n, err
	}
	for _, tb := range t.Blocks {
		if err := count(fmt.Fprintf(bw, "tb %d %d %d %d %d %d\n",
			tb.ID, tb.Meta.Group, tb.Meta.QHead, tb.Meta.TileLo, tb.Meta.TileHi, tb.Meta.Stream)); err != nil {
			return n, err
		}
		for _, in := range tb.Insts {
			var err error
			switch in.Kind {
			case KindCompute:
				err = count(fmt.Fprintf(bw, "CP %d\n", in.Cycles))
			default:
				err = count(fmt.Fprintf(bw, "%s %x %d\n", in.Kind, in.Addr, in.Width))
			}
			if err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadTrace parses the format produced by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	t := &Trace{}
	var cur *ThreadBlock
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "#":
			if len(fields) >= 3 && fields[1] == "trace" {
				t.Name = strings.Join(fields[2:], " ")
			}
		case "tb":
			// Six fields is the pre-serving header (no stream column).
			if len(fields) != 6 && len(fields) != 7 {
				return nil, fmt.Errorf("memtrace: line %d: malformed tb header", lineNo)
			}
			vals := make([]int, len(fields)-1)
			for i := range vals {
				v, err := strconv.Atoi(fields[i+1])
				if err != nil {
					return nil, fmt.Errorf("memtrace: line %d: %v", lineNo, err)
				}
				// All tb coordinates are non-negative by construction;
				// a negative value would corrupt the dispatcher's
				// core-home arithmetic downstream.
				if v < 0 {
					return nil, fmt.Errorf("memtrace: line %d: negative tb field %d", lineNo, v)
				}
				vals[i] = v
			}
			cur = &ThreadBlock{
				ID:   vals[0],
				Meta: Meta{Group: vals[1], QHead: vals[2], TileLo: vals[3], TileHi: vals[4]},
			}
			if len(vals) == 6 {
				cur.Meta.Stream = vals[5]
			}
			t.Blocks = append(t.Blocks, cur)
		case "LD", "ST":
			if cur == nil {
				return nil, fmt.Errorf("memtrace: line %d: instruction before tb header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("memtrace: line %d: malformed memory instruction", lineNo)
			}
			addr, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("memtrace: line %d: bad address: %v", lineNo, err)
			}
			width, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("memtrace: line %d: bad width: %v", lineNo, err)
			}
			kind := KindLoad
			if fields[0] == "ST" {
				kind = KindStore
			}
			cur.Insts = append(cur.Insts, Inst{Kind: kind, Addr: addr, Width: uint32(width)})
		case "CP":
			if cur == nil {
				return nil, fmt.Errorf("memtrace: line %d: instruction before tb header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("memtrace: line %d: malformed compute instruction", lineNo)
			}
			cycles, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("memtrace: line %d: bad cycle count: %v", lineNo, err)
			}
			cur.Insts = append(cur.Insts, Inst{Kind: KindCompute, Cycles: uint32(cycles)})
		default:
			return nil, fmt.Errorf("memtrace: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
