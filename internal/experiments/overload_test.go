package experiments

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

func overloadGridConfig() cluster.ScenarioConfig {
	return cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "overload/grid", Seed: 9, NumRequests: 8,
			Models:       []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: serving.ArrivalConfig{Kind: serving.ArrivalBurst, Period: 80000, Duty: 0.4, Factor: 6},
			Sched:   serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 120},
		},
		NumSessions: 4,
	}
}

// overloadCombos is a combo ladder: uncontrolled, preemption alone,
// shedding alone, shedding with forwarding, and both together. sat is
// the per-node saturation threshold the shedding combos use.
func overloadCombos(sat int64) []OverloadCombo {
	shed := cluster.OverloadConfig{
		SaturationTokens: sat,
		MaxRetries:       cluster.DefaultMaxRetries,
		BackoffBase:      cluster.DefaultBackoffBase,
	}
	fwd := shed
	fwd.Forward = true
	return []OverloadCombo{
		{Label: "none"},
		{Label: "preempt", Preempt: serving.PreemptNewest},
		{Label: "shed", Shed: shed},
		{Label: "shed+fwd", Shed: fwd},
		{Label: "preempt+shed+fwd", Preempt: serving.PreemptNewest, Shed: fwd},
	}
}

// TestOverloadGridParallelDeterminism: the rate × combo matrix returns
// bit-identical cells (fleet metrics AND goodput reports) at worker
// widths 1 and GOMAXPROCS — the overload acceptance criterion's
// grid-level counterpart.
func TestOverloadGridParallelDeterminism(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	rates := []float64{1, 2}
	combos := overloadCombos(60)
	slo := serving.SLO{TTFTCycles: 400000}
	pol := cluster.Policy{Kind: cluster.LeastOutstanding}

	run := func(par int) *OverloadGridResult {
		g, err := OverloadGrid(overloadGridConfig(), rates, combos, 2, pol, DynMGBMA, slo,
			Options{Base: &base, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range g.Cells {
			for i := range row {
				row[i].Metrics.StripStepCache()
			}
		}
		return g
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Fatal("overload grid results depend on worker count")
	}

	// Shape and scaling sanity: denser arrivals never lengthen the
	// regenerated population, and every combo ran its configuration.
	for i, rate := range rates {
		for j, combo := range combos {
			c := serial.Cells[i][j]
			if c.Metrics.Requests != 8 {
				t.Fatalf("cell x%g/%s served %d requests", rate, combo.Label, c.Metrics.Requests)
			}
			if !combo.Shed.Enabled() && (c.Metrics.Shed != 0 || c.Metrics.Dropped != 0) {
				t.Fatalf("shed-less combo %s shed work: %+v", combo.Label, c.Metrics.Overload)
			}
			if c.Goodput.SLO != slo {
				t.Fatalf("cell x%g/%s judged under %+v", rate, combo.Label, c.Goodput.SLO)
			}
		}
	}

	rendered := serial.Render()
	for _, combo := range combos {
		if !strings.Contains(rendered, combo.Label) {
			t.Fatalf("rendered grid missing combo %q:\n%s", combo.Label, rendered)
		}
	}
	if !strings.Contains(rendered, "goodput") {
		t.Fatalf("rendered grid missing the goodput column:\n%s", rendered)
	}
}

// TestOverloadGridValidation: empty axes and bad rates fail loudly.
func TestOverloadGridValidation(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	pol := cluster.Policy{Kind: cluster.LeastOutstanding}
	combos := overloadCombos(60)
	if _, err := OverloadGrid(overloadGridConfig(), nil, combos, 2, pol, DynMGBMA, serving.SLO{}, Options{Base: &base}); err == nil {
		t.Error("empty rate list accepted")
	}
	if _, err := OverloadGrid(overloadGridConfig(), []float64{1}, nil, 2, pol, DynMGBMA, serving.SLO{}, Options{Base: &base}); err == nil {
		t.Error("empty combo list accepted")
	}
	if _, err := OverloadGrid(overloadGridConfig(), []float64{0}, combos, 2, pol, DynMGBMA, serving.SLO{}, Options{Base: &base}); err == nil {
		t.Error("zero rate multiplier accepted")
	}
	if _, err := OverloadGrid(overloadGridConfig(), []float64{1, math.NaN()}, combos, 2, pol, DynMGBMA, serving.SLO{}, Options{Base: &base}); err == nil {
		t.Error("NaN rate multiplier accepted")
	}
	if _, err := OverloadGrid(overloadGridConfig(), []float64{math.Inf(1)}, combos, 2, pol, DynMGBMA, serving.SLO{}, Options{Base: &base}); err == nil {
		t.Error("infinite rate multiplier accepted")
	}
}
