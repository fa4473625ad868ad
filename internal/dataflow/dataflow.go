// Package dataflow is the analytical half of the paper's hybrid
// simulation framework (Fig. 6): it maps the Logit operator onto the
// simulated architecture as a tiled loop nest (the "dataflow") and
// unrolls the mapping into memory traces that drive the cycle-level
// simulator.
//
// The paper uses Timeloop for this step, optionally accepting
// handwritten mappings since a mapping is just a human-readable loop
// nest. This package plays the same role: Mapping is the loop nest,
// FindMapping is the constrained mapper, ParseMapping accepts
// handwritten mappings, and Generate unrolls a mapping into a
// memtrace.Trace.
package dataflow

import (
	"fmt"
	"strings"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

// Axis names a loop dimension of the Logit operator.
type Axis uint8

// The Logit operator's loop axes.
const (
	AxisH Axis = iota // KV head group
	AxisG             // query head within group
	AxisL             // sequence position
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisH:
		return "h"
	case AxisG:
		return "g"
	case AxisL:
		return "l"
	}
	return fmt.Sprintf("Axis(%d)", uint8(a))
}

func parseAxis(s string) (Axis, error) {
	switch strings.ToLower(s) {
	case "h":
		return AxisH, nil
	case "g":
		return AxisG, nil
	case "l":
		return AxisL, nil
	}
	return 0, fmt.Errorf("dataflow: unknown axis %q", s)
}

// Mapping is a dataflow: how the (h, g, l) iteration space of the
// Logit operator is tiled into thread blocks and how each block's
// inner loops are ordered. It captures exactly the degrees of freedom
// Section 6.2.2 of the paper exposes:
//
//   - TBOrder: outer→inner ordering of the thread-block-level loops.
//     The position of AxisL/AxisG controls how close in dispatch order
//     two blocks sharing the same K tile are — the GQA cross-core
//     reuse the CAT policies exploit.
//   - TBOutLines: output cache lines produced per thread block
//     (constraint: ≥ 1 to avoid false sharing of AttScore; empirically
//     1–2 is best, larger blocks reduce locality).
//   - VectorBytes: bytes per vector memory access (the 128-element
//     vector core ⇒ 128 B accesses, Table 5's vector-len).
//   - L1LTileBytes: bytes of the L dimension mapped to the innermost
//     L1 temporal level (constraint: ≥ 64 B so cache-line access is
//     complete and AttScore is not falsely shared).
//   - ComputePerRow: non-memory cycles charged per K row (the dot
//     product work, negligible in the memory-bound decode stage).
type Mapping struct {
	TBOrder       [3]Axis
	TBOutLines    int
	VectorBytes   int
	L1LTileBytes  int
	ComputePerRow int
}

// DefaultMapping is the mapping the constrained mapper selects for the
// paper's configuration: g innermost at the thread-block level (so
// blocks sharing a K tile are adjacent in dispatch order), one output
// line per block, 128-byte vector accesses.
func DefaultMapping() Mapping {
	return Mapping{
		TBOrder:       [3]Axis{AxisH, AxisL, AxisG},
		TBOutLines:    1,
		VectorBytes:   128,
		L1LTileBytes:  64,
		ComputePerRow: 2,
	}
}

// violation is the first dataflow constraint a mapping breaks for an
// operator, or legal. The mapper's search tests candidates through it,
// so rejecting one builds no error; Validate words it for callers that
// report it.
type violation uint8

const (
	legal violation = iota
	badAxis
	repeatedAxis
	noOutLines
	badVectorBytes
	smallL1LTile
	negativeCompute
	tileOverSeq
)

func (m Mapping) violation(op workload.LogitOp, lineBytes int) violation {
	seen := [3]bool{}
	for _, a := range m.TBOrder {
		if int(a) > 2 {
			return badAxis
		}
		if seen[a] {
			return repeatedAxis
		}
		seen[a] = true
	}
	switch {
	case m.TBOutLines < 1:
		return noOutLines
	case m.VectorBytes <= 0 || m.VectorBytes%lineBytes != 0:
		return badVectorBytes
	case m.L1LTileBytes < lineBytes:
		return smallL1LTile
	case m.ComputePerRow < 0:
		return negativeCompute
	case m.TBOutLines*(lineBytes/op.Model.OutBytes) > op.SeqLen:
		return tileOverSeq
	}
	return legal
}

// Validate checks the mapping against the paper's dataflow constraints.
func (m Mapping) Validate(op workload.LogitOp, lineBytes int) error {
	switch m.violation(op, lineBytes) {
	case badAxis:
		return fmt.Errorf("dataflow: invalid axis in TBOrder")
	case repeatedAxis:
		a := m.TBOrder[2] // the first axis seen twice
		if m.TBOrder[1] == m.TBOrder[0] {
			a = m.TBOrder[1]
		}
		return fmt.Errorf("dataflow: axis %v repeated in TBOrder", a)
	case noOutLines:
		return fmt.Errorf("dataflow: TBOutLines must be >= 1 (false-sharing constraint), got %d", m.TBOutLines)
	case badVectorBytes:
		return fmt.Errorf("dataflow: VectorBytes must be a positive multiple of the %d-byte line, got %d", lineBytes, m.VectorBytes)
	case smallL1LTile:
		return fmt.Errorf("dataflow: L1LTileBytes must be >= %d (constraint 2 of Section 6.2.2), got %d", lineBytes, m.L1LTileBytes)
	case negativeCompute:
		return fmt.Errorf("dataflow: ComputePerRow must be >= 0, got %d", m.ComputePerRow)
	case tileOverSeq:
		return fmt.Errorf("dataflow: thread block covers %d sequence positions but SeqLen is %d",
			m.TBOutLines*(lineBytes/op.Model.OutBytes), op.SeqLen)
	}
	return nil
}

// TileL returns the number of sequence positions one thread block
// covers (TBOutLines output lines worth of fp32 scores).
func (m Mapping) TileL(op workload.LogitOp, lineBytes int) int {
	return m.TBOutLines * lineBytes / op.Model.OutBytes
}

// String renders the mapping in the handwritten-mapping format
// accepted by ParseMapping.
func (m Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping logit\n")
	fmt.Fprintf(&b, "tb_order %v %v %v\n", m.TBOrder[0], m.TBOrder[1], m.TBOrder[2])
	fmt.Fprintf(&b, "tb_out_lines %d\n", m.TBOutLines)
	fmt.Fprintf(&b, "vector_bytes %d\n", m.VectorBytes)
	fmt.Fprintf(&b, "l1_l_tile %d\n", m.L1LTileBytes)
	fmt.Fprintf(&b, "compute_per_row %d\n", m.ComputePerRow)
	return b.String()
}

// ParseMapping reads a handwritten mapping in the format produced by
// Mapping.String — the analogue of feeding Timeloop a hand-authored
// mapping file.
func ParseMapping(text string) (Mapping, error) {
	m := DefaultMapping()
	sawHeader := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "mapping":
			sawHeader = true
		case "tb_order":
			if len(fields) != 4 {
				return m, fmt.Errorf("dataflow: line %d: tb_order needs 3 axes", lineNo+1)
			}
			for i := 0; i < 3; i++ {
				a, err := parseAxis(fields[i+1])
				if err != nil {
					return m, fmt.Errorf("dataflow: line %d: %v", lineNo+1, err)
				}
				m.TBOrder[i] = a
			}
		case "tb_out_lines":
			if _, err := fmt.Sscanf(fields[1], "%d", &m.TBOutLines); err != nil {
				return m, fmt.Errorf("dataflow: line %d: %v", lineNo+1, err)
			}
		case "vector_bytes":
			if _, err := fmt.Sscanf(fields[1], "%d", &m.VectorBytes); err != nil {
				return m, fmt.Errorf("dataflow: line %d: %v", lineNo+1, err)
			}
		case "l1_l_tile":
			if _, err := fmt.Sscanf(fields[1], "%d", &m.L1LTileBytes); err != nil {
				return m, fmt.Errorf("dataflow: line %d: %v", lineNo+1, err)
			}
		case "compute_per_row":
			if _, err := fmt.Sscanf(fields[1], "%d", &m.ComputePerRow); err != nil {
				return m, fmt.Errorf("dataflow: line %d: %v", lineNo+1, err)
			}
		default:
			return m, fmt.Errorf("dataflow: line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if !sawHeader {
		return m, fmt.Errorf("dataflow: missing 'mapping' header")
	}
	return m, nil
}

// Eval holds the analytical cost-model metrics of a mapping, used by
// the mapper to rank candidates without simulation (the Timeloop-style
// fast evaluation).
type Eval struct {
	NumTBs int
	// KShareDistance is the mean dispatch-order distance between two
	// thread blocks that read the same K tile. Small distances mean
	// the GQA reuse arrives close together in time, which is what the
	// LLC (cache hits, MSHR merges) can capture.
	KShareDistance float64
	// TBKLines is the number of distinct K lines one block streams; a
	// proxy for per-block working set (larger blocks reduce locality).
	TBKLines int
}

// Evaluate computes the analytical metrics of a mapping for op.
func Evaluate(m Mapping, op workload.LogitOp, lineBytes int) (Eval, error) {
	if err := m.Validate(op, lineBytes); err != nil {
		return Eval{}, err
	}
	return m.evaluate(op, lineBytes), nil
}

// evaluate is Evaluate for a mapping known to be legal for op.
func (m Mapping) evaluate(op workload.LogitOp, lineBytes int) Eval {
	tileL := m.TileL(op, lineBytes)
	numLTiles := (op.SeqLen + tileL - 1) / tileL
	extent := [3]int{AxisH: op.Model.H, AxisG: op.Model.G, AxisL: numLTiles}
	ev := Eval{NumTBs: op.Model.H * op.Model.G * numLTiles}
	// Two blocks share a K tile iff they agree on (h, lTile) and
	// differ in g. The dispatch distance between g and g+1 at the same
	// (h, l) equals the product of extents of axes strictly inside g
	// in the order.
	stride := 1
	for i := 2; i >= 0; i-- {
		if m.TBOrder[i] == AxisG {
			break
		}
		stride *= extent[m.TBOrder[i]]
	}
	ev.KShareDistance = float64(stride)
	rowBytes := op.Model.D * op.Model.ElemBytes
	ev.TBKLines = tileL * rowBytes / lineBytes
	return ev
}

// searchOrders and searchOutLines span the mapper's search space.
var (
	searchOrders = [...][3]Axis{
		{AxisH, AxisL, AxisG},
		{AxisH, AxisG, AxisL},
		{AxisL, AxisH, AxisG},
		{AxisG, AxisH, AxisL},
		{AxisG, AxisL, AxisH},
		{AxisL, AxisG, AxisH},
	}
	searchOutLines = [...]int{1, 2, 4, 8}
)

// FindMapping searches the mapping space under the paper's constraints
// and returns the best mapping for op: the candidate minimising the
// K-share dispatch distance and, among ties, the per-block working set
// (favouring 1–2 output lines per block, matching the paper's
// empirical finding). The search allocates nothing.
func FindMapping(op workload.LogitOp, lineBytes int) (Mapping, Eval, error) {
	if err := op.Validate(); err != nil {
		return Mapping{}, Eval{}, err
	}
	var (
		best     Mapping
		bestEval Eval
		found    bool
	)
	for _, order := range searchOrders {
		for _, ol := range searchOutLines {
			cand := DefaultMapping()
			cand.TBOrder = order
			cand.TBOutLines = ol
			if cand.violation(op, lineBytes) != legal {
				continue // violates a constraint for this op size
			}
			if ev := cand.evaluate(op, lineBytes); !found || better(ev, bestEval) {
				best, bestEval, found = cand, ev, true
			}
		}
	}
	if !found {
		return Mapping{}, Eval{}, fmt.Errorf("dataflow: no legal mapping for %s", op.Name())
	}
	return best, bestEval, nil
}

// better ranks a before b: smaller K-share distance first, then
// smaller per-block K footprint, then fewer blocks (less dispatch
// overhead) as the final tie-break.
func better(a, b Eval) bool {
	if a.KShareDistance != b.KShareDistance {
		return a.KShareDistance < b.KShareDistance
	}
	if a.TBKLines != b.TBKLines {
		return a.TBKLines < b.TBKLines
	}
	return a.NumTBs < b.NumTBs
}

// TraceName names the trace a generator writes for the operator named
// opName under m, for example "logit/llama3-70b/L512/hlg".
func TraceName(opName string, m Mapping) string {
	return opName + "/" + m.TBOrder[0].String() + m.TBOrder[1].String() + m.TBOrder[2].String()
}

// unroll appends one thread block per (h, g, l-tile) of an operator
// over seqLen positions to dst, in m's TBOrder, with IDs from 0, and
// returns them. A block covers positions [l0, l1), holds at most
// size(l0, l1) instructions, and fill appends them; dst is reserved
// for the whole trace first, so a slab that has held one at least as
// large takes it without allocating.
func unroll(dst *memtrace.Slab, m Mapping, model workload.ModelConfig, seqLen, tileL int,
	size func(l0, l1 int) int, fill func(tb *memtrace.ThreadBlock, h, g, l0, l1 int)) []memtrace.ThreadBlock {
	numLTiles := (seqLen + tileL - 1) / tileL
	tile := func(lt int) (l0, l1 int) {
		l0 = lt * tileL
		return l0, min(l0+tileL, seqLen)
	}
	insts := 0
	for lt := range numLTiles {
		insts += size(tile(lt))
	}
	dst.Reserve(model.H*model.G*numLTiles, insts*model.H*model.G)
	first := len(dst.Blocks())
	extent := [3]int{AxisH: model.H, AxisG: model.G, AxisL: numLTiles}
	o := m.TBOrder
	var at [3]int // the block's coordinate on each axis
	for i0 := range extent[o[0]] {
		for i1 := range extent[o[1]] {
			for i2 := range extent[o[2]] {
				at[o[0]], at[o[1]], at[o[2]] = i0, i1, i2
				h, g := at[AxisH], at[AxisG]
				l0, l1 := tile(at[AxisL])
				meta := memtrace.Meta{Group: h, QHead: g, TileLo: l0, TileHi: l1}
				fill(dst.Block(len(dst.Blocks())-first, meta, size(l0, l1)), h, g, l0, l1)
			}
		}
	}
	return dst.Blocks()[first:]
}

// vectors appends the VectorBytes-wide loads that read the n bytes
// from addr, the last one narrower when n is not a multiple.
func vectors(insts []memtrace.Inst, addr uint64, n, vectorBytes int) []memtrace.Inst {
	for off := 0; off < n; off += vectorBytes {
		insts = append(insts, memtrace.Inst{
			Kind:  memtrace.KindLoad,
			Addr:  addr + uint64(off),
			Width: uint32(min(vectorBytes, n-off)),
		})
	}
	return insts
}

// Generate unrolls a mapping into the thread-block trace that drives
// the cycle simulator, appending the blocks to dst and returning them.
// Each thread block (h, g, [l0,l1)) performs:
//
//	LD Q[h][g][:]                (reused from L1 within the block)
//	for each l in [l0, l1):
//	    LD K[h][l][:]            (VectorBytes-wide accesses)
//	    CP ComputePerRow         (dot-product work)
//	for each output line:
//	    ST AttScore[h][g][line]  (write-through to L2)
//
// Blocks are emitted in TBOrder; the global scheduler dispatches them
// in this order, so the order directly controls cross-core K reuse
// proximity. TraceName names the trace they form.
func Generate(op workload.LogitOp, amap *workload.AddressMap, m Mapping, lineBytes int, dst *memtrace.Slab) ([]memtrace.ThreadBlock, error) {
	if err := m.Validate(op, lineBytes); err != nil {
		return nil, err
	}
	if amap.Op() != op {
		return nil, fmt.Errorf("dataflow: address map built for %s, not %s", amap.Op().Name(), op.Name())
	}
	rowBytes := op.Model.D * op.Model.ElemBytes
	vecPerRow := (rowBytes + m.VectorBytes - 1) / m.VectorBytes
	qBytes := op.Model.D * op.Model.ElemBytes
	vecPerQ := (qBytes + m.VectorBytes - 1) / m.VectorBytes
	outElemsPerLine := lineBytes / op.Model.OutBytes
	// Stores may come in under TBOutLines on the last tile, so this is
	// an upper bound.
	size := func(l0, l1 int) int {
		return vecPerQ + (l1-l0)*vecPerRow + (l1 - l0) + m.TBOutLines
	}
	fill := func(tb *memtrace.ThreadBlock, h, g, l0, l1 int) {
		// Load the query head once per block.
		tb.Insts = vectors(tb.Insts, amap.QAddr(h, g, 0), qBytes, m.VectorBytes)
		// Stream K rows for the tile.
		for l := l0; l < l1; l++ {
			tb.Insts = vectors(tb.Insts, amap.KAddr(h, l, 0), rowBytes, m.VectorBytes)
			if m.ComputePerRow > 0 {
				tb.Insts = append(tb.Insts, memtrace.Inst{
					Kind:   memtrace.KindCompute,
					Cycles: uint32(m.ComputePerRow),
				})
			}
		}
		// Store the produced output lines.
		for l := l0; l < l1; l += outElemsPerLine {
			tb.Insts = append(tb.Insts, memtrace.Inst{
				Kind:  memtrace.KindStore,
				Addr:  amap.OutAddr(h, g, l),
				Width: uint32(min((l1-l)*op.Model.OutBytes, lineBytes)),
			})
		}
	}
	return unroll(dst, m, op.Model, op.SeqLen, m.TileL(op, lineBytes), size, fill), nil
}

// Trace generates the memory trace of op at address base 0 under the
// mapping FindMapping selects: the trace of one evaluation cell.
func Trace(op workload.LogitOp, lineBytes int) (*memtrace.Trace, error) {
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		return nil, err
	}
	mapping, _, err := FindMapping(op, lineBytes)
	if err != nil {
		return nil, err
	}
	blocks, err := Generate(op, amap, mapping, lineBytes, new(memtrace.Slab))
	if err != nil {
		return nil, err
	}
	return memtrace.NewTrace(TraceName(op.Name(), mapping), blocks), nil
}
