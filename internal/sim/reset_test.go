// Reset equivalence: rewinding an engine onto a trace must be
// bit-identical to building a fresh engine for it — the guarantee the
// serving layer's persistent per-step simulator rests on. The test
// mirrors the sim.Config.Reference equivalence pattern: the fresh
// engine is the ground truth, the Reset engine the fast path.

package sim

import (
	"reflect"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/dataflow"
	"repro/internal/memtrace"
	"repro/internal/workload"
)

func resetTestTrace(t *testing.T, seqLen int) (*memtrace.Trace, int) {
	t.Helper()
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: seqLen}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	mapping, _, err := dataflow.FindMapping(op, 64)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := dataflow.Generate(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		t.Fatal(err)
	}
	return memtrace.NewTrace("", blocks), op.Model.G
}

// TestResetEquivalence runs trace B on a fresh engine and on an engine
// that first ran trace A and was Reset — across the throttle, arbiter,
// request-response and scheduler matrix — and requires bit-identical
// Results (cycles, every counter, steal count).
func TestResetEquivalence(t *testing.T) {
	trA, g := resetTestTrace(t, 96)
	trB, _ := resetTestTrace(t, 64)

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"unopt", func(c *Config) {}},
		{"dynmg+BMA", func(c *Config) { c.Throttle = "dynmg"; c.Arbiter = arbiter.BMA }},
		{"dyncta", func(c *Config) { c.Throttle = "dyncta" }},
		{"lcs", func(c *Config) { c.Throttle = "lcs" }},
		{"cobrra", func(c *Config) { c.Arbiter = arbiter.COBRRA }},
		{"MA+req-first", func(c *Config) { c.Arbiter = arbiter.MA; c.ReqRespArb = "req-first" }},
		{"global-sched", func(c *Config) { c.Scheduler = "global" }},
		{"partitioned", func(c *Config) { c.Scheduler = "partitioned" }},
		{"reference", func(c *Config) { c.Reference = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.L2SizeBytes = 1 << 20 // pressure the cache at test-sized traces
			tc.mut(&cfg)

			fresh, err := New(cfg, trB, g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatal(err)
			}

			eng, err := New(cfg, trA, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Reset(trB, g); err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reset run diverges from fresh run:\ngot  %+v\nwant %+v", got, want)
			}

			// A second rewind onto the same trace agrees too (the state a
			// serving engine is in after many steps).
			if err := eng.Reset(trB, g); err != nil {
				t.Fatal(err)
			}
			again, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("second reset run diverges:\ngot  %+v\nwant %+v", again, want)
			}
		})
	}
}

// TestResetValidation: bad reset inputs are rejected.
func TestResetValidation(t *testing.T) {
	tr, g := resetTestTrace(t, 64)
	eng, err := New(DefaultConfig(), tr, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(nil, g); err == nil {
		t.Error("nil trace accepted")
	}
	if err := eng.Reset(&memtrace.Trace{}, g); err == nil {
		t.Error("empty trace accepted")
	}
	if err := eng.Reset(tr, 0); err == nil {
		t.Error("zero group size accepted")
	}
}
