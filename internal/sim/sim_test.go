package sim

import (
	"testing"

	"repro/internal/arbiter"
	"repro/internal/dataflow"
	"repro/internal/memtrace"
	"repro/internal/workload"
)

// smallTrace builds a scaled-down Logit trace for fast tests.
func smallTrace(t testing.TB, model workload.ModelConfig, seqLen int) (*memtrace.Trace, int) {
	t.Helper()
	op := workload.LogitOp{Model: model, SeqLen: seqLen}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		t.Fatalf("NewAddressMap: %v", err)
	}
	m := dataflow.DefaultMapping()
	blocks, err := dataflow.Generate(op, amap, m, 64, new(memtrace.Slab))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return memtrace.NewTrace("", blocks), op.Model.G
}

func TestEngineRunsToCompletion(t *testing.T) {
	tr, g := smallTrace(t, workload.Llama3_70B, 256)
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 1 << 20 // shrink for test speed
	eng, err := New(cfg, tr, g)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("expected positive cycle count, got %d", res.Cycles)
	}
	if res.Counters.TBCompleted != int64(len(tr.Blocks)) {
		t.Fatalf("completed %d thread blocks, trace has %d",
			res.Counters.TBCompleted, len(tr.Blocks))
	}
	t.Logf("cycles=%d metrics:\n%s", res.Cycles, res.Metrics)
}

func TestPoliciesRun(t *testing.T) {
	tr, g := smallTrace(t, workload.Llama3_70B, 256)
	for _, thr := range []string{"none", "dyncta", "lcs", "dynmg"} {
		for _, arb := range []arbiter.Kind{arbiter.FCFS, arbiter.Balanced, arbiter.MA, arbiter.BMA, arbiter.COBRRA} {
			cfg := DefaultConfig()
			cfg.L2SizeBytes = 1 << 20
			cfg.Throttle = thr
			cfg.Arbiter = arb
			eng, err := New(cfg, tr, g)
			if err != nil {
				t.Fatalf("New(%s,%v): %v", thr, arb, err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("Run(%s,%v): %v", thr, arb, err)
			}
			if res.Counters.TBCompleted != int64(len(tr.Blocks)) {
				t.Fatalf("%s/%v: completed %d of %d blocks", thr, arb,
					res.Counters.TBCompleted, len(tr.Blocks))
			}
		}
	}
}
