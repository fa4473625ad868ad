// Extends the determinism suite of determinism_test.go across the
// parallel experiment matrix: at any experiments.Options.Parallel, the
// engines a Runner lends from cell to cell must produce exactly the
// results of a fresh engine per cell, in exactly the same order. This
// lives in an external test package because experiments imports sim.
package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

// matrixCells is a grid in which every cell differs from its
// neighbours in model, policy or L2 size, so the engines a Runner lends
// move between configurations at every width. It holds the 21 cells of
// Fig. 9(b) at scale 128 (Llama3-405B at sequence 256 under every Fig.
// 9 policy on L2 128, 256 and 512 KiB) with one of ten 70B cells
// (sequences 128 and 256 on the base L2) after every second one.
func matrixCells() []experiments.CellSpec {
	small := []experiments.Policy{
		experiments.Unopt, experiments.Dyncta, experiments.DynMG,
		experiments.DynMGBMA, experiments.Cobrra,
	}
	var llama70 []experiments.CellSpec
	for _, seq := range []int{128, 256} {
		op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: seq}
		for _, p := range small {
			llama70 = append(llama70, experiments.CellSpec{Op: op, Pol: p})
		}
	}
	fig9 := []experiments.Policy{
		experiments.Unopt, experiments.Dyncta, experiments.LCS, experiments.Cobrra,
		experiments.DynMG, experiments.DynMGCobrra, experiments.DynMGBMA,
	}
	caches := []int{128 << 10, 256 << 10, 512 << 10}
	op := workload.LogitOp{Model: workload.Llama3_405B, SeqLen: 256}
	var cells []experiments.CellSpec
	// Cell k of Fig. 9(b) runs policy k mod 7 on cache k mod 3: every
	// pair once, and each neighbour differs in both.
	for k := range len(fig9) * len(caches) {
		cells = append(cells, experiments.CellSpec{Op: op, Pol: fig9[k%len(fig9)], L2Bytes: caches[k%len(caches)]})
		if k%2 == 1 && len(llama70) > 0 {
			cells = append(cells, llama70[0])
			llama70 = llama70[1:]
		}
	}
	return append(cells, llama70...)
}

// RunCells at every width must return, in matrix order, exactly what a
// fresh engine returns for each cell alone. The step memo is off: with
// it on, every width would replay the fresh pass and lend no engine.
func TestParallelResultOrdering(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 512 << 10
	cells := matrixCells()

	run := func(parallel int, cells []experiments.CellSpec) ([]sim.Result, error) {
		opts := experiments.Options{Base: &base, Parallel: parallel, StepCache: serving.StepCacheOff}
		return experiments.NewRunner(opts).RunCells(cells)
	}
	// Cells alone on fresh Runners, side by side: each builds its engine.
	fresh := make([]sim.Result, len(cells))
	err := pool.ForEach(len(cells), runtime.GOMAXPROCS(0), func(i int) error {
		res, err := run(1, cells[i:i+1])
		if err == nil {
			fresh[i] = res[0]
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		got, err := run(p, cells)
		if err != nil {
			t.Fatalf("parallel=%d: %v", p, err)
		}
		if len(got) != len(fresh) {
			t.Fatalf("parallel=%d: %d results, want %d", p, len(got), len(fresh))
		}
		for i := range fresh {
			if got[i].Cycles != fresh[i].Cycles {
				t.Errorf("parallel=%d cell %d: cycles %d, want %d", p, i, got[i].Cycles, fresh[i].Cycles)
			}
			if got[i].Counters != fresh[i].Counters {
				t.Errorf("parallel=%d cell %d: counters diverge", p, i)
			}
		}
	}
}

// A cell replayed from the step memo, or simulated and published on
// the memo path, returns exactly the sim.Result the memo-free path
// simulates, Metrics and Steals included, at every width. Every cell
// runs twice per grid, so at width 4 a copy can also wait for the
// worker simulating it.
func TestMemoCellEquivalence(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 512 << 10
	cells := matrixCells()
	run := func(mode serving.StepCacheMode, parallel int, cells []experiments.CellSpec) []sim.Result {
		t.Helper()
		opts := experiments.Options{Base: &base, Parallel: parallel, StepCache: mode}
		res, err := experiments.NewRunner(opts).RunCells(cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(serving.StepCacheOff, runtime.GOMAXPROCS(0), cells)
	steals := false
	for _, r := range want {
		steals = steals || r.Steals != 0
	}
	if !steals {
		t.Fatal("no cell migrates a thread block, so replayed Steals go untested")
	}
	twice := append(append([]experiments.CellSpec(nil), cells...), cells...)
	serving.FlushSharedCaches()
	// The first grid simulates every cell; the others replay them.
	for _, p := range []int{4, 1, 2} {
		for i, got := range run(serving.StepCacheOn, p, twice) {
			if !reflect.DeepEqual(got, want[i%len(cells)]) {
				t.Errorf("parallel=%d cell %d: memo path returned\n%+v\nwant\n%+v", p, i, got, want[i%len(cells)])
			}
		}
	}
}

// The parallel path must surface simulation errors instead of
// deadlocking or dropping them.
func TestParallelErrorPropagation(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 512 << 10
	base.MaxCycles = 10 // guarantees a MaxCycles failure
	r := experiments.NewRunner(experiments.Options{Base: &base, Parallel: 4})
	if _, err := r.RunCells(matrixCells()); err == nil {
		t.Fatal("expected an error from the parallel matrix")
	}
}
