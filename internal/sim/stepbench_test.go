package sim

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/memtrace"
	"repro/internal/workload"
)

// BenchmarkTokenStep measures the serving-regime hot path: one
// single-stream decode-step trace simulated on a Reset engine — the
// unit of work the step memo cannot skip.
func BenchmarkTokenStep(b *testing.B) {
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 32}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		b.Fatal(err)
	}
	mapping, _, err := dataflow.FindMapping(op, 64)
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := dataflow.Generate(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		b.Fatal(err)
	}
	tr := memtrace.NewTrace("", blocks)
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= 32
	cfg.Throttle = "dynmg"
	cfg.Arbiter = 3 // BMA
	eng, err := New(cfg, tr, op.Model.G)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reset(tr, op.Model.G); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
