package experiments

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hwprof"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func schedGridScenario(t *testing.T) serving.Scenario {
	t.Helper()
	scn, err := serving.NewScenario(serving.ScenarioConfig{
		Name: "sched-grid", Seed: 9, NumRequests: 5,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 3,
		MeanInterArrival: 0, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestSchedGridParallelDeterminism is the chunked-vs-prefill-first
// determinism gate across -parallel widths: the full scheduler ×
// policy matrix run serially and at GOMAXPROCS must produce
// bit-identical metrics in identical order, so a chunk-size sweep's
// conclusions never depend on the fan-out.
func TestSchedGridParallelDeterminism(t *testing.T) {
	scn := schedGridScenario(t)
	scheds := ChunkSweep([]int{16, 32}, 0)
	pols := []Policy{
		{Label: "unopt", Throttle: "none"},
		{Label: "dynmg", Throttle: "dynmg"},
	}
	base := sim.DefaultConfig()
	run := func(par int) *SchedGridResult {
		g, err := SchedGrid(scn, scheds, pols, Options{
			Base: &base, Scale: 32, Parallel: par,
			StepCache: serving.StepCacheNoMemo, // no cross-run memo coupling
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range g.Metrics {
			for _, m := range row {
				m.StripStepCache()
			}
		}
		return g
	}
	serial := run(1)
	wide := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Metrics, wide.Metrics) {
		t.Fatal("sched grid metrics differ between -parallel 1 and GOMAXPROCS")
	}
	// The decode-only row skips prefill; both prefill rows do the whole
	// prompt work; chunked rows split it into more passes.
	var promptTotal int64
	for _, r := range scn.Requests {
		promptTotal += int64(r.PromptLen)
	}
	for j := range pols {
		if got := serial.Metrics[0][j].PrefillTokens; got != 0 {
			t.Errorf("decode-only cell prefilled %d tokens", got)
		}
		pf, ch := serial.Metrics[1][j], serial.Metrics[2][j]
		if pf.PrefillTokens != promptTotal || ch.PrefillTokens != promptTotal {
			t.Errorf("prefill totals %d/%d, want %d", pf.PrefillTokens, ch.PrefillTokens, promptTotal)
		}
		if ch.PrefillSteps <= pf.PrefillSteps {
			t.Errorf("chunked/16 prefill steps %d not above prefill-first %d", ch.PrefillSteps, pf.PrefillSteps)
		}
	}
}

// TestChunkSweepLabels pins the sweep construction and the grid's
// scheduler labels.
func TestChunkSweepLabels(t *testing.T) {
	scheds := ChunkSweep([]int{16, 64}, 2048)
	want := []string{"decode-only/kv2048", "prefill-first/kv2048", "chunked/16/kv2048", "chunked/64/kv2048"}
	if len(scheds) != len(want) {
		t.Fatalf("sweep has %d entries, want %d", len(scheds), len(want))
	}
	for i, s := range scheds {
		if got := SchedLabel(s); got != want[i] {
			t.Errorf("label %d = %q, want %q", i, got, want[i])
		}
		if s.KVCapTokens != 2048 {
			t.Errorf("entry %d capacity %d, want 2048", i, s.KVCapTokens)
		}
	}
	if got := SchedLabel(serving.SchedulerConfig{}); got != "decode-only" {
		t.Errorf("zero-value label %q", got)
	}
}

// TestSchedGridRecordsTelemetryAndProfiles: the scheduler grid honours
// Options.Trace and Options.HWProf like every serving grid — each
// (scheduler, policy) cell writes its own event log and profile report
// under a label naming the scheduler, so rows never overwrite each
// other, and every cell's metrics carry a profile.
func TestSchedGridRecordsTelemetryAndProfiles(t *testing.T) {
	dir := t.TempDir()
	base := sim.DefaultConfig()
	g, err := SchedGrid(schedGridScenario(t), ChunkSweep([]int{16}, 0), []Policy{Unopt, DynMGBMA}, Options{
		Base: &base, Scale: 32, Parallel: 2,
		Trace:     &telemetry.Spec{EventsOut: filepath.Join(dir, "events-%.jsonl")},
		HWProf:    hwprof.Spec{Enabled: true},
		HWProfOut: filepath.Join(dir, "hw-%.txt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, row := range g.Metrics {
		for _, m := range row {
			cells++
			if m.HW == nil {
				t.Errorf("cell %d ran without a hardware profile", cells)
			}
		}
	}
	for _, pattern := range []string{"events-*.jsonl", "hw-*.txt"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != cells {
			t.Errorf("%s: %d files for %d cells: %v", pattern, len(files), cells, files)
		}
	}
}
