package experiments

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/memtrace"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

// warmGridScenario is the overload population of the bench
// fleet-overload-grid workload at its scale 32: bursty arrivals against
// KV caches that hold about 1.5 maximal requests per node, with
// preemption, shedding and forwarding live.
func warmGridScenario(t *testing.T) (cluster.Scenario, cluster.OverloadConfig) {
	t.Helper()
	const minPrompt, maxPrompt = 512 / 32, 2048 / 32
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "warm/overload", Seed: 9, NumRequests: 16,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: serving.ArrivalConfig{Kind: serving.ArrivalBurst, Period: 80000, Duty: 0.4, Factor: 8},
			Sched: serving.SchedulerConfig{
				Policy:      serving.SchedChunked,
				ChunkTokens: 16,
				KVCapTokens: 3 * int64(maxPrompt+5) / 2,
				Preempt:     serving.PreemptNewest,
			},
		},
		NumSessions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ov := cluster.OverloadConfig{SaturationTokens: 3 * int64(maxPrompt+5), MaxRetries: 3, BackoffBase: 20000, Forward: true}
	return scn, ov
}

// TestWarmFleetGridAllocations: once the shared memo holds every step
// of a fleet grid, a further call of the grid (nodes {2,4} × every
// router, 12 cluster runs and ~940 replayed steps) allocates little
// beyond its results: a replayed step allocates nothing, and each of
// the grid's two workers builds its node engines and router tables
// once and lends them from cell to cell. Building them per cell took
// 234 KB in 858 objects. The ceilings are at most 1.25x the counts
// measured with Go 1.24 at GOMAXPROCS 2 when they were set.
func TestWarmFleetGridAllocations(t *testing.T) {
	const (
		calls       = 5
		maxBytes    = 149_000
		maxMallocs  = 337
		parallelism = 2
	)
	scn, ov := warmGridScenario(t)
	grid := func(warm bool) {
		g, err := ClusterGridWith(scn, []int{2, 4}, cluster.Policies(), DynMGBMA, ov,
			Options{Scale: 32, Parallel: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range g.Metrics {
			for _, m := range row {
				if warm && m.StepCache.MemoMisses != 0 {
					t.Fatalf("%d-node %s: warm call missed the memo %d times", m.Nodes, m.Policy, m.StepCache.MemoMisses)
				}
			}
		}
	}
	serving.FlushSharedCaches()
	grid(false)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		grid(true)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / calls
	mallocs := (after.Mallocs - before.Mallocs) / calls
	t.Logf("warm grid call: %d bytes in %d objects", bytes, mallocs)
	if bytes > maxBytes {
		t.Errorf("warm grid call allocates %d bytes, want at most %d", bytes, maxBytes)
	}
	if mallocs > maxMallocs {
		t.Errorf("warm grid call allocates %d objects, want at most %d", mallocs, maxMallocs)
	}
}

// TestColdGridAllocations pins the heap objects one cold call of each
// figure, fleet and serving grid allocates at width 2. A grid lends one
// engine (figures), one cluster.Scratch (fleet cells) or one SimPool
// (serving cells) per worker from cell to cell, so it builds a machine
// per worker, not per cell; building one per cell took 39,120 objects
// for both Fig. 7 models at scale 128, 18,042 for Fig. 9(a), 9,471 for
// the overload grid and 9,000 for the serving grid. Each ceiling is at
// most 1.25x the count measured with Go 1.24 when it was set.
func TestColdGridAllocations(t *testing.T) {
	figs := Options{Scale: 128, Parallel: 2}
	scn, ov := warmGridScenario(t)
	for _, row := range []struct {
		name    string
		ceiling uint64
		run     func() error
	}{
		{"RunFig7", 4_970, func() error {
			for _, m := range []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B} {
				if _, err := RunFig7(m, figs); err != nil {
					return err
				}
			}
			return nil
		}},
		{"RunFig9", 2_660, func() error {
			_, err := RunFig9(workload.Llama3_70B, figs)
			return err
		}},
		{"OverloadGrid", 3_410, func() error {
			_, err := ClusterGridWith(scn, []int{2, 4}, cluster.Policies(), DynMGBMA, ov, Options{Scale: 32, Parallel: 2})
			return err
		}},
		{"ServeGrid", 3_650, func() error {
			scn, err := serving.DefaultScenario(32)
			if err != nil {
				return err
			}
			_, err = ServeGrid(scn, []Policy{Unopt, Dyncta, LCS, DynMG, Cobrra, DynMGCobrra, DynMGB, DynMGMA, DynMGBMA},
				Options{Scale: 32, Parallel: 2})
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			serving.FlushSharedCaches()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := row.run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			t.Logf("cold call: %d objects, %d bytes (ceiling %d objects)", n, after.TotalAlloc-before.TotalAlloc, row.ceiling)
			if n > row.ceiling {
				t.Errorf("cold call allocated %d objects, want at most %d", n, row.ceiling)
			}
		})
	}
}

// builds counts the engines and traces Runners build while a test
// wraps their builders (countBuilds).
type builds struct{ engines, traces atomic.Int64 }

// countBuilds wraps the Runners' engine and trace builders for the rest
// of the test and returns their counts.
func countBuilds(t *testing.T) *builds {
	b := new(builds)
	eng, gen := newEngine, generateTrace
	newEngine = func(cfg sim.Config, tr *memtrace.Trace, groupSize int) (*sim.Engine, error) {
		b.engines.Add(1)
		return eng(cfg, tr, groupSize)
	}
	generateTrace = func(op workload.LogitOp, lineBytes int) (*memtrace.Trace, error) {
		b.traces.Add(1)
		return gen(op, lineBytes)
	}
	t.Cleanup(func() { newEngine, generateTrace = eng, gen })
	return b
}

// runFig7Pair runs Fig. 7 for both models, as the bench fig7-mshr
// workload does.
func runFig7Pair(t *testing.T, opts Options) []*Fig7Result {
	t.Helper()
	var out []*Fig7Result
	for _, m := range []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B} {
		r, err := RunFig7(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestWarmFigureReplays: once a figure's cells are in the shared memo,
// a further call of the figure replays every cell. It returns the cold
// call's series, builds no engine, generates no trace and allocates
// little beyond its results. The ceiling is at most 1.25x the count
// measured with Go 1.24 at GOMAXPROCS 2 when it was set.
func TestWarmFigureReplays(t *testing.T) {
	const (
		calls      = 5
		maxMallocs = 277
	)
	opts := Options{Scale: 128, Parallel: 2}
	serving.FlushSharedCaches()
	cold := runFig7Pair(t, opts)
	b := countBuilds(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if warm := runFig7Pair(t, opts); !reflect.DeepEqual(warm, cold) {
			t.Fatalf("warm call %d returned other series than the cold call", i)
		}
	}
	runtime.ReadMemStats(&after)
	if n, m := b.engines.Load(), b.traces.Load(); n != 0 || m != 0 {
		t.Errorf("warm calls built %d engines and %d traces, want none", n, m)
	}
	mallocs := (after.Mallocs - before.Mallocs) / calls
	t.Logf("warm call: %d bytes in %d objects", (after.TotalAlloc-before.TotalAlloc)/calls, mallocs)
	if mallocs > maxMallocs {
		t.Errorf("warm call allocates %d objects, want at most %d", mallocs, maxMallocs)
	}
}

// TestFig8ReplaysFig7: Fig. 8 is the 8K column of Fig. 7(a), so after
// Fig. 7 of Llama3-70B at the same scale it simulates no cell, and its
// rows equal those of a run that simulates every cell.
func TestFig8ReplaysFig7(t *testing.T) {
	opts := Options{Scale: 128, Parallel: 2}
	serving.FlushSharedCaches()
	if _, err := RunFig7(workload.Llama3_70B, opts); err != nil {
		t.Fatal(err)
	}
	b := countBuilds(t)
	rows, err := RunFig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := b.engines.Load(), b.traces.Load(); n != 0 || m != 0 {
		t.Errorf("Fig. 8 after Fig. 7 built %d engines and %d traces, want none", n, m)
	}
	off := opts
	off.StepCache = serving.StepCacheOff
	want, err := RunFig8(off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("replayed Fig. 8 rows differ from simulated ones:\ngot  %+v\nwant %+v", rows, want)
	}
}
