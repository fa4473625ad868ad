package dataflow

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

const lineBytes = 64

func op70b(seq int) workload.LogitOp {
	return workload.LogitOp{Model: workload.Llama3_70B, SeqLen: seq}
}

func TestDefaultMappingValid(t *testing.T) {
	m := DefaultMapping()
	if err := m.Validate(op70b(1024), lineBytes); err != nil {
		t.Fatalf("default mapping invalid: %v", err)
	}
	if m.TileL(op70b(1024), lineBytes) != 16 {
		t.Fatalf("TileL=%d want 16 (one 64B line of fp32 scores)", m.TileL(op70b(1024), lineBytes))
	}
}

func TestValidateConstraints(t *testing.T) {
	op := op70b(1024)
	cases := []struct {
		name   string
		mutate func(*Mapping)
	}{
		{"zero out lines", func(m *Mapping) { m.TBOutLines = 0 }},
		{"vector not multiple of line", func(m *Mapping) { m.VectorBytes = 96 }},
		{"L1 tile below line", func(m *Mapping) { m.L1LTileBytes = 32 }},
		{"negative compute", func(m *Mapping) { m.ComputePerRow = -1 }},
		{"repeated axis", func(m *Mapping) { m.TBOrder = [3]Axis{AxisH, AxisH, AxisG} }},
		{"block exceeds seq", func(m *Mapping) { m.TBOutLines = 1024 }},
	}
	for _, c := range cases {
		m := DefaultMapping()
		c.mutate(&m)
		if err := m.Validate(op, lineBytes); err == nil {
			t.Errorf("%s: validated, want error", c.name)
		}
	}
}

func TestEvaluateKShareDistance(t *testing.T) {
	op := op70b(1024)
	cases := []struct {
		order [3]Axis
		want  float64
	}{
		{[3]Axis{AxisH, AxisL, AxisG}, 1},  // g innermost: adjacent blocks share K
		{[3]Axis{AxisH, AxisG, AxisL}, 64}, // l innermost: G separated by numLTiles
		{[3]Axis{AxisL, AxisG, AxisH}, 8},  // h innermost: g separated by H
	}
	for _, c := range cases {
		m := DefaultMapping()
		m.TBOrder = c.order
		ev, err := Evaluate(m, op, lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if ev.KShareDistance != c.want {
			t.Errorf("order %v: distance %v want %v", c.order, ev.KShareDistance, c.want)
		}
	}
}

func TestFindMappingPicksGInnermost(t *testing.T) {
	m, ev, err := FindMapping(op70b(1024), lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	if m.TBOrder[2] != AxisG {
		t.Fatalf("mapper should put g innermost (GQA sharing), got %v", m.TBOrder)
	}
	if ev.KShareDistance != 1 {
		t.Fatalf("KShareDistance=%v want 1", ev.KShareDistance)
	}
	if m.TBOutLines != 1 {
		t.Fatalf("mapper should pick the smallest block (paper: 1-2 lines best), got %d", m.TBOutLines)
	}
}

// TestFindMappingAllocationFree: the mapper allocates nothing at the
// serving fleet's short KV lengths, where most candidates are rejected
// because their blocks cover more positions than the sequence holds.
func TestFindMappingAllocationFree(t *testing.T) {
	for _, kv := range []int{16, 17, 31, 44, 50, 66} {
		for _, model := range []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B} {
			op := workload.LogitOp{Model: model, SeqLen: kv}
			pop := workload.PrefillOp{Model: model, KVLen: kv, ChunkLen: kv / 2}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := FindMapping(op, lineBytes); err != nil {
					t.Fatal(err)
				}
				if _, _, err := FindPrefillMapping(pop, lineBytes); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: the mapper allocates %.0f times, want 0", op.Name(), allocs)
			}
		}
	}
}

func TestParseMappingRoundTrip(t *testing.T) {
	m := DefaultMapping()
	m.TBOutLines = 2
	m.ComputePerRow = 7
	back, err := ParseMapping(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, back)
	}
}

func TestParseMappingErrors(t *testing.T) {
	cases := []string{
		"tb_order h l g\n",                  // missing header
		"mapping logit\ntb_order h l\n",     // short order
		"mapping logit\ntb_order h l x\n",   // unknown axis
		"mapping logit\nbogus 3\n",          // unknown directive
		"mapping logit\ntb_out_lines xyz\n", // bad int
	}
	for _, c := range cases {
		if _, err := ParseMapping(c); err == nil {
			t.Errorf("ParseMapping(%q) succeeded, want error", c)
		}
	}
}

// collectCoverage sums, per (h, g), which sequence positions' outputs
// are produced, and which K rows are loaded.
func TestGenerateCoversIterationSpace(t *testing.T) {
	op := op70b(256)
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMapping()
	blocks, err := Generate(op, amap, m, lineBytes, new(memtrace.Slab))
	if err != nil {
		t.Fatal(err)
	}
	tr := memtrace.NewTrace("", blocks)
	tileL := m.TileL(op, lineBytes)
	wantBlocks := op.Model.H * op.Model.G * (op.SeqLen / tileL)
	if len(tr.Blocks) != wantBlocks {
		t.Fatalf("blocks=%d want %d", len(tr.Blocks), wantBlocks)
	}

	covered := make(map[[3]int]bool) // (h, g, l) output coverage
	for _, tb := range tr.Blocks {
		meta := tb.Meta
		if meta.TileHi-meta.TileLo != tileL {
			t.Fatalf("block %d tile size %d want %d", tb.ID, meta.TileHi-meta.TileLo, tileL)
		}
		// K loads of the block must cover exactly rows [TileLo,TileHi).
		kLoads := 0
		var stores int
		for _, in := range tb.Insts {
			switch in.Kind {
			case memtrace.KindLoad:
				if amap.Region(in.Addr) == "K" {
					kLoads++
				}
			case memtrace.KindStore:
				if amap.Region(in.Addr) != "Out" {
					t.Fatalf("store outside Out region at %#x", in.Addr)
				}
				stores++
			}
		}
		rowVecs := (op.Model.D*op.Model.ElemBytes + m.VectorBytes - 1) / m.VectorBytes
		if kLoads != tileL*rowVecs {
			t.Fatalf("block %d: %d K loads want %d", tb.ID, kLoads, tileL*rowVecs)
		}
		if stores != m.TBOutLines {
			t.Fatalf("block %d: %d stores want %d", tb.ID, stores, m.TBOutLines)
		}
		for l := meta.TileLo; l < meta.TileHi; l++ {
			key := [3]int{meta.Group, meta.QHead, l}
			if covered[key] {
				t.Fatalf("output (%d,%d,%d) produced twice", meta.Group, meta.QHead, l)
			}
			covered[key] = true
		}
	}
	if len(covered) != op.Model.H*op.Model.G*op.SeqLen {
		t.Fatalf("coverage %d want %d", len(covered), op.Model.H*op.Model.G*op.SeqLen)
	}
}

// The trace footprint must equal the tensor working set regardless of
// the mapping parameters.
func TestFootprintInvariant(t *testing.T) {
	op := op70b(128)
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same operator ⇒ same footprint for any legal mapping; compare
	// every generated variant against the first.
	ref := int64(-1)
	simple := func(orderIdx, outLines uint8) bool {
		orders := [][3]Axis{
			{AxisH, AxisL, AxisG}, {AxisH, AxisG, AxisL}, {AxisL, AxisG, AxisH},
		}
		m := DefaultMapping()
		m.TBOrder = orders[int(orderIdx)%len(orders)]
		m.TBOutLines = int(outLines)%4 + 1
		blocks, err := Generate(op, amap, m, lineBytes, new(memtrace.Slab))
		if err != nil {
			return false
		}
		fp := memtrace.NewTrace("", blocks).Footprint(lineBytes)
		if ref < 0 {
			ref = fp
			return true
		}
		return fp == ref
	}
	if err := quick.Check(simple, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMismatchedMap(t *testing.T) {
	opA := op70b(128)
	opB := op70b(256)
	amap, _ := workload.NewAddressMap(opA, 0)
	if _, err := Generate(opB, amap, DefaultMapping(), lineBytes, new(memtrace.Slab)); err == nil {
		t.Fatal("generate with mismatched address map succeeded")
	}
}

func TestMappingString(t *testing.T) {
	s := DefaultMapping().String()
	for _, want := range []string{"mapping logit", "tb_order h l g", "tb_out_lines 1", "vector_bytes 128"} {
		if !strings.Contains(s, want) {
			t.Errorf("mapping string missing %q:\n%s", want, s)
		}
	}
}
