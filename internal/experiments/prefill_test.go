package experiments

import (
	"fmt"
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

// chunkSweep is the scheduler list of a chunk-size sweep: decode-only
// (the prefilled-elsewhere baseline), prefill-first (the monolithic
// schedule), and one chunked configuration per chunk size.
func chunkSweep(chunks ...int) []serving.SchedulerConfig {
	out := []serving.SchedulerConfig{{Policy: serving.SchedDecodeOnly}, {Policy: serving.SchedPrefillFirst}}
	for _, c := range chunks {
		out = append(out, serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: c})
	}
	return out
}

// schedCells builds the scheduler × policy matrix of scn as serving
// cells, row-major: each row substitutes its scheduler into the
// scenario, and each cell is labelled "<scenario>-s<row>-<policy>" so
// rows never overwrite each other's artifacts.
func schedCells(scn serving.Scenario, scheds []serving.SchedulerConfig, pols []Policy) []ServeCellSpec {
	var cells []ServeCellSpec
	for i, s := range scheds {
		row := scn
		row.Sched = s
		for _, p := range pols {
			cells = append(cells, ServeCellSpec{Scenario: row, Pol: p, Label: fmt.Sprintf("%s-s%d-%s", scn.Name, i, p.Label)})
		}
	}
	return cells
}

// TestSchedGridParallelDeterminism is the chunked-vs-prefill-first
// determinism gate across -parallel widths: the full scheduler ×
// policy matrix run serially and at GOMAXPROCS must produce
// bit-identical metrics in identical order, so a chunk-size sweep's
// conclusions never depend on the fan-out.
func TestSchedGridParallelDeterminism(t *testing.T) {
	scn := schedGridScenario(t)
	pols := []Policy{
		{Label: "unopt", Throttle: "none"},
		{Label: "dynmg", Throttle: "dynmg"},
	}
	cells := schedCells(scn, chunkSweep(16, 32), pols)
	base := sim.DefaultConfig()
	run := func(par int) []*serving.Metrics {
		ms, err := RunServeCells(cells, Options{
			Base: &base, Scale: 32, Parallel: par,
			StepCache: serving.StepCacheNoMemo, // no cross-run memo coupling
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			m.StripStepCache()
		}
		return ms
	}
	serial := run(1)
	wide := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("sched grid metrics differ between -parallel 1 and GOMAXPROCS")
	}
	// The decode-only row skips prefill; both prefill rows do the whole
	// prompt work; chunked rows split it into more passes.
	var promptTotal int64
	for _, r := range scn.Requests {
		promptTotal += int64(r.PromptLen)
	}
	for j := range pols {
		if got := serial[j].PrefillTokens; got != 0 {
			t.Errorf("decode-only cell prefilled %d tokens", got)
		}
		pf, ch := serial[len(pols)+j], serial[2*len(pols)+j]
		if pf.PrefillTokens != promptTotal || ch.PrefillTokens != promptTotal {
			t.Errorf("prefill totals %d/%d, want %d", pf.PrefillTokens, ch.PrefillTokens, promptTotal)
		}
		if ch.PrefillSteps <= pf.PrefillSteps {
			t.Errorf("chunked/16 prefill steps %d not above prefill-first %d", ch.PrefillSteps, pf.PrefillSteps)
		}
	}
}

// TestSchedGridRecordsTelemetryAndProfiles: a scheduler grid honours
// Options.Trace and Options.HWProf like every serving grid — each
// (scheduler, policy) cell writes its own event log and profile report
// under its label, so rows never overwrite each other, and every
// cell's metrics carry a profile.
func TestSchedGridRecordsTelemetryAndProfiles(t *testing.T) {
	dir := t.TempDir()
	base := sim.DefaultConfig()
	ms, err := RunServeCells(schedCells(schedGridScenario(t), chunkSweep(16), []Policy{Unopt, DynMGBMA}), Options{
		Base: &base, Scale: 32, Parallel: 2,
		Trace:     &telemetry.Spec{EventsOut: filepath.Join(dir, "events-%.jsonl")},
		HWProf:    hwprof.Spec{Enabled: true},
		HWProfOut: filepath.Join(dir, "hw-%.txt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.HW == nil {
			t.Errorf("cell %d ran without a hardware profile", i)
		}
	}
	for _, pattern := range []string{"events-*.jsonl", "hw-*.txt"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(ms) {
			t.Errorf("%s: %d files for %d cells: %v", pattern, len(files), len(ms), files)
		}
	}
}
