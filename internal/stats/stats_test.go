package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != 2.0 {
		t.Fatalf("Speedup(200,100)=%v", got)
	}
	if got := Speedup(100, 200); got != 0.5 {
		t.Fatalf("Speedup(100,200)=%v", got)
	}
	if got := Speedup(100, 0); got != 0 {
		t.Fatalf("Speedup with zero divisor = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
		{[]float64{3}, 3},
		{nil, 0},
		{[]float64{1, -1}, 0},
		{[]float64{1, 0}, 0},
	}
	for _, c := range cases {
		got := Geomean(c.in)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v)=%v want %v", c.in, got, c.want)
		}
	}
}

// Geomean is scale-equivariant: Geomean(k*xs) = k*Geomean(xs).
func TestGeomeanScaleProperty(t *testing.T) {
	check := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		k := float64(kRaw%9) + 1
		for i, v := range raw {
			xs[i] = float64(v%100) + 1
			scaled[i] = xs[i] * k
		}
		a, b := Geomean(xs)*k, Geomean(scaled)
		return math.Abs(a-b) <= 1e-9*math.Max(a, b)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Cycles: 10, L2Hits: 5, RespQPeak: 3}
	b := Counters{Cycles: 7, L2Hits: 2, RespQPeak: 9}
	a.Add(&b)
	if a.Cycles != 17 || a.L2Hits != 7 {
		t.Fatalf("Add: %+v", a)
	}
	if a.RespQPeak != 9 {
		t.Fatalf("RespQPeak should take the max, got %d", a.RespQPeak)
	}
}

func TestDerive(t *testing.T) {
	c := Counters{
		Cycles:     1_000_000,
		InstIssued: 500_000,
		L1Accesses: 100, L1Hits: 25,
		L2Accesses: 1000, L2Hits: 400, L2Misses: 600,
		MSHRMerges:   150,
		MSHREntryAcc: 480, MSHREntryCap: 960,
		CacheStall: 100, SliceCycles: 1000,
		RowHits: 90, RowMisses: 10,
		DRAMReads: 1000, DRAMWrites: 0,
		CoreIdle: 160_000, CoreMemStall: 320_000,
	}
	m := c.Derive(2.0, 64, 16)
	if m.L1HitRate != 0.25 {
		t.Errorf("L1HitRate=%v", m.L1HitRate)
	}
	if m.L2HitRate != 0.4 {
		t.Errorf("L2HitRate=%v", m.L2HitRate)
	}
	if m.MSHRHitRate != 0.25 {
		t.Errorf("MSHRHitRate=%v (merges/misses)", m.MSHRHitRate)
	}
	if m.MSHREntryUtil != 0.5 {
		t.Errorf("MSHREntryUtil=%v", m.MSHREntryUtil)
	}
	if m.CacheStallFrac != 0.1 {
		t.Errorf("CacheStallFrac=%v", m.CacheStallFrac)
	}
	if m.DRAMRowHitRate != 0.9 {
		t.Errorf("DRAMRowHitRate=%v", m.DRAMRowHitRate)
	}
	if m.BytesFromDRAM != 64000 {
		t.Errorf("BytesFromDRAM=%v", m.BytesFromDRAM)
	}
	wantSec := 1_000_000 / 2.0e9
	if math.Abs(m.Seconds-wantSec) > 1e-15 {
		t.Errorf("Seconds=%v want %v", m.Seconds, wantSec)
	}
	wantBW := 64000 / wantSec / 1e9
	if math.Abs(m.DRAMBandwidthGB-wantBW) > 1e-9 {
		t.Errorf("DRAMBandwidthGB=%v want %v", m.DRAMBandwidthGB, wantBW)
	}
	if m.IPC != 0.5 {
		t.Errorf("IPC=%v", m.IPC)
	}
	if math.Abs(m.CoreIdleFrac-0.01) > 1e-12 || math.Abs(m.CoreMemFrac-0.02) > 1e-12 {
		t.Errorf("core fracs %v %v", m.CoreIdleFrac, m.CoreMemFrac)
	}
}

func TestDeriveZeroSafe(t *testing.T) {
	var c Counters
	m := c.Derive(1.96, 64, 16)
	if m.Cycles != 0 || m.L2HitRate != 0 || m.DRAMBandwidthGB != 0 {
		t.Fatalf("zero counters should derive zero metrics: %+v", m)
	}
	_ = m.String() // must not panic
}

func TestTable(t *testing.T) {
	s := []Series{
		{Label: "dynmg", Points: []Point{{X: "4K", Y: 1.1}, {X: "8K", Y: 1.2}}},
		{Label: "lcs", Points: []Point{{X: "4K", Y: 1.0}, {X: "8K", Y: 0.9}}},
	}
	out := Table("title", s)
	for _, want := range []string{"title", "dynmg", "lcs", "4K", "8K", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "1.149") { // geomean of 1.1, 1.2
		t.Errorf("geomean column wrong:\n%s", out)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},            // median of an odd-length sample
		{25, 20},            // rank 1 exactly
		{75, 40},            // rank 3 exactly
		{40, 29},            // rank 1.6: 20 + 0.6*(35-20)
		{90, 46},            // rank 3.6: 40 + 0.6*(50-40)
		{-5, 15}, {120, 50}, // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated or required sorted.
	unsorted := []float64{3, 1, 2}
	if got := Percentile(unsorted, 50); got != 2 {
		t.Errorf("median of unsorted = %v, want 2", got)
	}
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", unsorted)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample = %v, want 7", got)
	}
	// Even-length median interpolates between the middle pair.
	if got := Percentile([]float64{1, 2, 3, 4}, 50); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPercentileSet(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	got := PercentileSet(xs, 0, 50, 100)
	want := []float64{15, 35, 50}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("PercentileSet = %v, want %v", got, want)
		}
	}
	if out := PercentileSet(nil, 50, 99); out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty PercentileSet = %v, want zeros", out)
	}
	// Set and single-call definitions agree.
	for _, p := range []float64{10, 33, 50, 66, 90, 95, 99} {
		if a, b := Percentile(xs, p), PercentileSet(xs, p)[0]; a != b {
			t.Fatalf("Percentile(%v)=%v != PercentileSet=%v", p, a, b)
		}
	}
}
