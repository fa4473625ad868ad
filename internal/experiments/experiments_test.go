package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serving"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale 32 shrinks the paper matrix to seconds while keeping every
// working-set/cache ratio; the shape assertions here are the coarse
// ones that survive heavy scaling.
const testScale = 32

func TestRunFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment matrix is slow")
	}
	// Scale 16, not 32: the 16K point needs enough cache turnover for
	// the throttling mechanism to have headroom (see EXPERIMENTS.md).
	r, err := RunFig7(workload.Llama3_70B, Options{Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Throttling) != 3 || len(r.Arbitration) != 4 || len(r.Cumulative) != 4 {
		t.Fatalf("panel sizes: %d %d %d", len(r.Throttling), len(r.Arbitration), len(r.Cumulative))
	}
	get := func(series []stats.Series, label string) []float64 {
		for _, s := range series {
			if s.Label == label {
				vals := make([]float64, len(s.Points))
				for i, p := range s.Points {
					vals[i] = p.Y
				}
				return vals
			}
		}
		t.Fatalf("series %q missing", label)
		return nil
	}
	// lcs must be near-neutral everywhere.
	for _, v := range get(r.Throttling, "lcs") {
		if v < 0.9 || v > 1.15 {
			t.Errorf("lcs speedup %v outside neutral band", v)
		}
	}
	// dynmg must win at the longest (most constrained) sequence.
	dynmg := get(r.Throttling, "dynmg")
	if last := dynmg[len(dynmg)-1]; last < 1.03 {
		t.Errorf("dynmg at 16K-equivalent = %v, want > 1.03", last)
	}
	// Cumulative dynmg+BMA >= dynmg at the longest sequence.
	cumBMA := get(r.Cumulative, "dynmg+BMA")
	cumDynmg := get(r.Cumulative, "dynmg")
	if cumBMA[len(cumBMA)-1] < cumDynmg[len(cumDynmg)-1]*0.98 {
		t.Errorf("dynmg+BMA cumulative (%v) below dynmg (%v)", cumBMA, cumDynmg)
	}
}

func TestRunFig8Rows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment matrix is slow")
	}
	rows, err := RunFig8(Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows=%d want 7", len(rows))
	}
	if rows[0].Policy != "unopt" || rows[0].RelPerf != 1.0 {
		t.Fatalf("first row must be the unopt reference: %+v", rows[0])
	}
	for _, r := range rows {
		if r.MSHREntryUtil <= 0 || r.MSHREntryUtil > 1 {
			t.Errorf("%s: util %v out of range", r.Policy, r.MSHREntryUtil)
		}
		if r.DRAMBwGBs <= 0 {
			t.Errorf("%s: no bandwidth", r.Policy)
		}
	}
	out := RenderFig8(rows)
	if !strings.Contains(out, "dynmg+BMA") || !strings.Contains(out, "mshr-hit") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestRunFig9Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment matrix is slow")
	}
	// Scale 16 for fig9: at scale 32 the smallest cache approaches the
	// minimum live working set (16 cores x 4 windows x one tile) and
	// the capacity regime distorts.
	r, err := RunFig9(workload.Llama3_70B, Options{Scale: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CacheSizes) != 3 {
		t.Fatalf("cache sizes %v", r.CacheSizes)
	}
	var unopt, bma []float64
	for _, s := range r.Series {
		vals := make([]float64, len(s.Points))
		for i, p := range s.Points {
			vals[i] = p.Y
		}
		switch s.Label {
		case "unopt":
			unopt = vals
		case "dynmg+BMA":
			bma = vals
		}
	}
	// Normalisation anchor: unopt at the middle cache size is 1.0.
	if unopt[1] != 1.0 {
		t.Fatalf("unopt@mid = %v, want 1.0 (normalisation)", unopt[1])
	}
	// The unoptimized system must improve with cache size.
	if !(unopt[0] <= unopt[1] && unopt[1] <= unopt[2]) {
		t.Errorf("unopt not monotone in cache size: %v", unopt)
	}
	// dynmg+BMA must beat unopt at the middle and large sizes (the
	// paper itself records one exception at the smallest cache).
	for i := 1; i < len(bma); i++ {
		if bma[i] < unopt[i] {
			t.Errorf("dynmg+BMA (%v) below unopt (%v) at size %d", bma[i], unopt[i], i)
		}
	}
}

func TestHWCost(t *testing.T) {
	rows := RunHWCost()
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		rel := (r.AreaUm2 - r.PaperUm2) / r.PaperUm2
		if rel < -0.10 || rel > 0.10 {
			t.Errorf("%s deviates %.1f%% from paper", r.Block, rel*100)
		}
	}
	out := RenderHWCost(rows)
	if !strings.Contains(out, "arbiter") || !strings.Contains(out, "hit buffer") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("ids=%v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestTraceCaching(t *testing.T) {
	r := NewRunner(Options{})
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 256}
	a, err := r.Trace(op)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Trace(op)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("trace not cached")
	}
}

// TestRunnerTraceIsComposedStep: a cell's trace is, block for block,
// the trace a serving engine composes for one decode stream at slot 0
// and base 0, with the model's group size, so the step memo's
// signature of that step names the cell (serving.StepMemo.Cell).
func TestRunnerTraceIsComposedStep(t *testing.T) {
	r := NewRunner(Options{})
	for _, m := range []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B} {
		for _, seq := range []int{32, 48, 64, 100, 128, 256, 512, 1000, 1024, 2048} {
			op := workload.LogitOp{Model: m, SeqLen: seq}
			tr, err := r.Trace(op)
			if err != nil {
				t.Fatal(err)
			}
			step, g, err := serving.ComposeStep([]serving.StreamState{{Model: m, KVLen: seq}}, false, traceLineBytes)
			if err != nil {
				t.Fatal(err)
			}
			if g != m.G {
				t.Errorf("%s: composed group size %d, want %d", op.Name(), g, m.G)
			}
			if len(step.Blocks) != len(tr.Blocks) {
				t.Errorf("%s: composed %d blocks, cell trace %d", op.Name(), len(step.Blocks), len(tr.Blocks))
				continue
			}
			for i := range tr.Blocks {
				if !reflect.DeepEqual(tr.Blocks[i], step.Blocks[i]) {
					t.Errorf("%s: block %d differs:\ncell %+v\nstep %+v", op.Name(), i, tr.Blocks[i].Meta, step.Blocks[i].Meta)
					break
				}
			}
		}
	}
}
