package memtrace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Blocks: []*ThreadBlock{
			{
				ID:   0,
				Meta: Meta{Group: 1, QHead: 2, TileLo: 0, TileHi: 16},
				Insts: []Inst{
					{Kind: KindLoad, Addr: 0x1000, Width: 128},
					{Kind: KindCompute, Cycles: 4},
					{Kind: KindStore, Addr: 0x2000, Width: 64},
				},
			},
			{
				ID:   1,
				Meta: Meta{Group: 1, QHead: 3, TileLo: 16, TileHi: 32},
				Insts: []Inst{
					{Kind: KindLoad, Addr: 0x1080, Width: 128},
				},
			},
		},
	}
}

func TestKindString(t *testing.T) {
	if KindLoad.String() != "LD" || KindStore.String() != "ST" || KindCompute.String() != "CP" {
		t.Fatal("kind strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include value")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if back.Name != tr.Name {
		t.Fatalf("name %q != %q", back.Name, tr.Name)
	}
	if len(back.Blocks) != len(tr.Blocks) {
		t.Fatalf("blocks %d != %d", len(back.Blocks), len(tr.Blocks))
	}
	for i := range tr.Blocks {
		if !reflect.DeepEqual(tr.Blocks[i], back.Blocks[i]) {
			t.Fatalf("block %d mismatch:\n%+v\n%+v", i, tr.Blocks[i], back.Blocks[i])
		}
	}
}

// Round-trip property over randomly generated traces.
func TestRoundTripQuick(t *testing.T) {
	gen := func(r *rand.Rand) *Trace {
		tr := &Trace{Name: "q"}
		nb := r.Intn(5) + 1
		for b := 0; b < nb; b++ {
			tb := &ThreadBlock{
				ID:   b,
				Meta: Meta{Group: r.Intn(8), QHead: r.Intn(16), TileLo: r.Intn(100), TileHi: r.Intn(100) + 100},
			}
			ni := r.Intn(10) + 1
			for i := 0; i < ni; i++ {
				switch r.Intn(3) {
				case 0:
					tb.Insts = append(tb.Insts, Inst{Kind: KindLoad, Addr: uint64(r.Int63n(1 << 40)), Width: uint32(r.Intn(256) + 1)})
				case 1:
					tb.Insts = append(tb.Insts, Inst{Kind: KindStore, Addr: uint64(r.Int63n(1 << 40)), Width: uint32(r.Intn(256) + 1)})
				default:
					tb.Insts = append(tb.Insts, Inst{Kind: KindCompute, Cycles: uint32(r.Intn(100) + 1)})
				}
			}
			tr.Blocks = append(tr.Blocks, tb)
		}
		return tr
	}
	check := func(seed int64) bool {
		tr := gen(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(back.Blocks) != len(tr.Blocks) {
			return false
		}
		for i := range tr.Blocks {
			if !reflect.DeepEqual(tr.Blocks[i], back.Blocks[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"LD 1000 64\n",           // instruction before tb header
		"tb 1 2 3\n",             // short tb header
		"tb 0 0 0 0 16\nLD zz 4", // bad address
		"tb 0 0 0 0 16\nCP x",    // bad cycles
		"bogus 1 2 3\n",          // unknown record
		"tb 0 0 0 0 16\nLD 10\n", // malformed memory instruction
		"tb 0 0 0 0 16 -5\n",     // negative stream coordinate
		"tb 0 -1 0 0 16\nCP 1\n", // negative group coordinate
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("ReadTrace(%q) succeeded, want error", c)
		}
	}
}

func TestCounts(t *testing.T) {
	tr := sampleTrace()
	if got := tr.TotalInsts(); got != 4 {
		t.Fatalf("TotalInsts=%d", got)
	}
	if got := tr.TotalMemInsts(); got != 3 {
		t.Fatalf("TotalMemInsts=%d", got)
	}
	if got := tr.Blocks[0].MemInsts(); got != 2 {
		t.Fatalf("MemInsts=%d", got)
	}
}

func TestLinesAndFootprint(t *testing.T) {
	tb := &ThreadBlock{Insts: []Inst{
		{Kind: KindLoad, Addr: 0, Width: 128},   // lines 0,1
		{Kind: KindLoad, Addr: 64, Width: 64},   // line 1 (shared)
		{Kind: KindStore, Addr: 960, Width: 32}, // line 15
		{Kind: KindCompute, Cycles: 3},
	}}
	if got := tb.Lines(64); got != 3 {
		t.Fatalf("Lines=%d want 3", got)
	}
	tr := &Trace{Blocks: []*ThreadBlock{tb}}
	if got := tr.Footprint(64); got != 3*64 {
		t.Fatalf("Footprint=%d want %d", got, 3*64)
	}
}

// A memory access that straddles a line boundary counts both lines.
func TestLinesStraddleProperty(t *testing.T) {
	check := func(addrRaw uint32, widthRaw uint8) bool {
		addr := uint64(addrRaw)
		width := uint32(widthRaw%200) + 1
		tb := &ThreadBlock{Insts: []Inst{{Kind: KindLoad, Addr: addr, Width: width}}}
		first := addr / 64
		last := (addr + uint64(width) - 1) / 64
		return tb.Lines(64) == int(last-first+1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSlab: blocks added to a slab keep their IDs, metadata and
// instructions, also when the slab grows under earlier blocks; NewTrace
// lists them in order; and a Reset slab takes a trace no larger than
// one it held without allocating.
func TestSlab(t *testing.T) {
	var s Slab
	fill := func(n int) {
		s.Reset()
		for id := 0; id < n; id++ {
			tb := s.Block(id, Meta{Group: id, TileHi: 16}, 2)
			tb.Insts = append(tb.Insts,
				Inst{Kind: KindLoad, Addr: uint64(id) << 6, Width: 64},
				Inst{Kind: KindCompute, Cycles: uint32(id)})
		}
	}
	fill(100) // no Reserve: both slabs grow while blocks are added
	tr := NewTrace("slab", s.Blocks())
	if tr.Name != "slab" || len(tr.Blocks) != 100 {
		t.Fatalf("trace %q has %d blocks, want 100", tr.Name, len(tr.Blocks))
	}
	for i, tb := range tr.Blocks {
		want := ThreadBlock{ID: i, Meta: Meta{Group: i, TileHi: 16}, Insts: []Inst{
			{Kind: KindLoad, Addr: uint64(i) << 6, Width: 64},
			{Kind: KindCompute, Cycles: uint32(i)},
		}}
		if !reflect.DeepEqual(*tb, want) {
			t.Fatalf("block %d = %+v, want %+v", i, *tb, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(60) }); allocs != 0 {
		t.Fatalf("refilling a grown slab allocates %.0f times, want 0", allocs)
	}
	s.Reset()
	s.Reserve(1, 8)
	if len(s.Blocks()) != 0 || cap(s.Block(0, Meta{}, 8).Insts) != 8 {
		t.Fatal("Reset left blocks in the slab, or Block gave the wrong room")
	}
}
