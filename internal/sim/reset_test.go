// Reset equivalence: rewinding an engine onto a trace, under its own
// or another configuration of the same machine, must be bit-identical
// to building a fresh engine for it — the guarantee the serving
// layer's persistent per-step simulator and the grids' lent engines
// rest on. The test mirrors the sim.Config.Reference equivalence
// pattern: the fresh engine is the ground truth, the Reset engine the
// fast path.

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

// resetCases is the throttle, arbiter, request-response, scheduler,
// loop and L2-size matrix the Reset tests run. Cases of one machine
// differ only in what ResetTo re-aims an engine at, so it moves
// between any two of them, the reference loop included; it rejects a
// move to another machine.
var resetCases = []struct {
	name    string
	mut     func(*Config)
	machine int
}{
	{"unopt", func(c *Config) {}, 0},
	{"dynmg+BMA", func(c *Config) { c.Throttle = "dynmg"; c.Arbiter = arbiter.BMA }, 0},
	{"dyncta", func(c *Config) { c.Throttle = "dyncta" }, 0},
	{"lcs", func(c *Config) { c.Throttle = "lcs" }, 0},
	{"cobrra", func(c *Config) { c.Arbiter = arbiter.COBRRA }, 0},
	{"MA+req-first", func(c *Config) { c.Arbiter = arbiter.MA; c.ReqRespArb = "req-first" }, 0},
	{"global-sched", func(c *Config) { c.Scheduler = "global" }, 0},
	{"partitioned", func(c *Config) { c.Scheduler = "partitioned" }, 0},
	{"reference", func(c *Config) { c.Reference = true }, 0},
	{"L2-256K+MA", func(c *Config) { c.L2SizeBytes = 256 << 10; c.Arbiter = arbiter.MA }, 0},
	{"L2-2M+dynmg", func(c *Config) { c.L2SizeBytes = 2 << 20; c.Throttle = "dynmg" }, 0},
	{"8-cores", func(c *Config) { c.NumCores = 8 }, 1},
}

// resetCaseConfig is the Table 5 machine with a 1 MiB L2, which
// pressures the cache at test-sized traces, under one case's mutation.
func resetCaseConfig(mut func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 1 << 20
	mut(&cfg)
	return cfg
}

// TestResetEquivalence runs trace A on an engine under case X of
// resetCases, rewinds it with ResetTo onto trace B under case Y, and
// requires the Result (cycles, every counter, steal count) of a fresh
// engine built for Y and B — for every ordered pair of cases of one
// machine (subtest Y/from-X), X == Y included. ResetTo to another
// machine must fail.
func TestResetEquivalence(t *testing.T) {
	trA, g := resetTestTrace(t, 96)
	trB, _ := resetTestTrace(t, 64)

	want := make([]Result, len(resetCases))
	for i, tc := range resetCases {
		fresh, err := New(resetCaseConfig(tc.mut), trB, g)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for j, y := range resetCases {
		t.Run(y.name, func(t *testing.T) {
			for _, x := range resetCases {
				t.Run("from-"+x.name, func(t *testing.T) {
					eng, err := New(resetCaseConfig(x.mut), trA, g)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eng.Run(); err != nil {
						t.Fatal(err)
					}
					err = eng.ResetTo(resetCaseConfig(y.mut), trB, g)
					if x.machine != y.machine {
						if err == nil {
							t.Fatal("ResetTo another machine accepted")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[j]) {
						t.Fatalf("reset run diverges from fresh run:\ngot  %+v\nwant %+v", got, want[j])
					}

					// A second rewind onto the same trace agrees too (the state a
					// serving engine is in after many steps).
					if x.name != y.name {
						return
					}
					if err := eng.Reset(trB, g); err != nil {
						t.Fatal(err)
					}
					again, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, want[j]) {
						t.Fatalf("second reset run diverges:\ngot  %+v\nwant %+v", again, want[j])
					}
				})
			}
		})
	}
}

// TestRunAllocationFree: once an engine has run a trace, rewinding it
// with Reset (ResetTo its own configuration) and running the trace
// again allocates nothing, on either loop and for every case of
// resetCases — the steady state of a serving node's persistent step
// simulator. AllocsPerRun counts the whole process's allocations and
// truncates their mean over its runs, so over 10 runs a stray
// allocation elsewhere in the process reads 0, while one in every
// Reset+Run still reads 1.
func TestRunAllocationFree(t *testing.T) {
	tr, g := resetTestTrace(t, 64)
	for _, tc := range resetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(resetCaseConfig(tc.mut), tr, g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := eng.Reset(tr, g); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Reset+Run allocated %v objects, want 0", allocs)
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
