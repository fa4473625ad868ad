// Cluster half of the ISSUE 4 step-cache acceptance: the fleet's
// simulated metrics are bit-identical with the token-step cache on vs
// off for every router policy, and a memo shared across the fleet's
// concurrently advancing nodes never changes a number at any
// worker-pool width.

package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/serving"
)

// TestClusterStepCacheEquivalence: for every router policy, the full
// fast path (explicit shared memo), the arena+reset path and the
// naive reference produce bit-identical fleet metrics.
func TestClusterStepCacheEquivalence(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	for _, pol := range Policies() {
		naive, err := Run(cfg, scn, 4, pol, Options{StepCache: serving.StepCacheOff})
		if err != nil {
			t.Fatalf("%s naive: %v", pol, err)
		}
		naive.StripStepCache()

		nomemo, err := Run(cfg, scn, 4, pol, Options{StepCache: serving.StepCacheNoMemo})
		if err != nil {
			t.Fatalf("%s nomemo: %v", pol, err)
		}
		nomemo.StripStepCache()
		if !reflect.DeepEqual(nomemo, naive) {
			t.Fatalf("%s: arena+reset fleet diverges from naive:\n%v\n%v", pol, nomemo, naive)
		}

		memo := serving.NewStepMemo()
		fast, err := Run(cfg, scn, 4, pol, Options{Memo: memo})
		if err != nil {
			t.Fatalf("%s fast: %v", pol, err)
		}
		if fast.StepCache.MemoHits+fast.StepCache.MemoMisses == 0 {
			t.Fatalf("%s: fast path never consulted the memo", pol)
		}
		fast.StripStepCache()
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("%s: memo fleet diverges from naive:\n%v\n%v", pol, fast, naive)
		}
	}
}

// TestClusterSharedMemoWidths: one memo shared by every node of the
// fleet yields bit-identical metrics at worker-pool widths 1 and
// GOMAXPROCS — concurrent nodes racing to publish overlapping step
// signatures never change a simulated number.
func TestClusterSharedMemoWidths(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	wide := runtime.GOMAXPROCS(0)
	for _, pol := range Policies() {
		memoSerial := serving.NewStepMemo()
		serial, err := Run(cfg, scn, 4, pol, Options{Parallel: 1, Memo: memoSerial})
		if err != nil {
			t.Fatalf("%s serial: %v", pol, err)
		}
		memoWide := serving.NewStepMemo()
		parallel, err := Run(cfg, scn, 4, pol, Options{Parallel: wide, Memo: memoWide})
		if err != nil {
			t.Fatalf("%s parallel: %v", pol, err)
		}
		serial.StripStepCache()
		parallel.StripStepCache()
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: shared-memo fleet differs between widths 1 and %d:\n%v\n%v",
				pol, wide, serial, parallel)
		}
		// Reusing the warm serial memo at full width agrees too — the
		// cross-run reuse the experiment grids rely on.
		rerun, err := Run(cfg, scn, 4, pol, Options{Parallel: wide, Memo: memoSerial})
		if err != nil {
			t.Fatalf("%s rerun: %v", pol, err)
		}
		rerun.StripStepCache()
		if !reflect.DeepEqual(rerun, serial) {
			t.Fatalf("%s: warm-memo rerun diverges:\n%v\n%v", pol, rerun, serial)
		}
	}
}

// TestColdRunKeepsNoTraces: a cold fleet run keeps none of the step
// traces it composed. After a run shaped like the benchmark's
// fleet-prefix workload (depth-3 sessions, chunked prefill, prefix
// cache, 2 nodes, affinity, width 2, so speculation composes too) and a
// collection, the live heap is within 2 MB of where it started: only
// the step memo's small entries remain.
func TestColdRunKeepsNoTraces(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "test/prefix-heap", Seed: 13, NumRequests: 9,
			MinPromptLen: 16, MaxPromptLen: 64,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 60000, MaxBatch: 4,
			SessionDepth: 3,
			Sched: serving.SchedulerConfig{
				Policy: serving.SchedChunked, ChunkTokens: 16,
				PrefixCacheTokens: 16 * 64,
			},
		},
		NumSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serving.FlushSharedCaches()
	before := live()
	if m, err := Run(bmaConfig(), scn, 2, Policy{Kind: SessionAffinity}, Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	} else if m.StepCache.MemoMisses == 0 {
		t.Fatal("the run simulated no step")
	}
	after := live()
	t.Logf("live heap %.1f MB before the run, %.1f MB after", float64(before)/(1<<20), float64(after)/(1<<20))
	if after > before+2<<20 {
		t.Errorf("the run left %.1f MB more live heap, want at most 2 MB", float64(after-before)/(1<<20))
	}
}

// TestColdFleetSimulatorBudget: a run builds its step simulators per
// unit of width, not per node. A cold run of the fleet-overload-grid
// population at 64 requests over 16 sessions (no KV cap, preemption or
// overload control; dynmg+BMA, L2/32, round-robin) on 16 nodes at
// width 2 allocates within a fixed budget, however many of its nodes
// miss the memo. Building one simulator per node that misses took
// about 37 MB here, one per unit of width about 7 MB. The metrics are
// identical at widths 1, 2 and 4.
func TestColdFleetSimulatorBudget(t *testing.T) {
	const (
		nodes    = 16
		maxBytes = 16 << 20
	)
	const minPrompt, maxPrompt = 512 / 32, 2048 / 32
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "test/sim-budget", Seed: 9, NumRequests: 64,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: serving.ArrivalConfig{Kind: serving.ArrivalBurst, Period: 80000, Duty: 0.4, Factor: 8},
			Sched:   serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16},
		},
		NumSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, pol := bmaConfig(), Policy{Kind: RoundRobin}
	run := func(width int) *Metrics {
		m, err := Run(cfg, scn, nodes, pol, Options{Parallel: width, Memo: serving.NewStepMemo()})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return m
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := run(2)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	active := 0
	for _, nm := range m.PerNode {
		if nm.StepCache.MemoMisses > 0 {
			active++
		}
	}
	t.Logf("cold run at width 2: %.1f MB allocated, %d of %d nodes simulated a step",
		float64(bytes)/(1<<20), active, nodes)
	if active < nodes/2 {
		t.Fatalf("only %d of %d nodes simulated a step; the budget would not show a per-node simulator", active, nodes)
	}
	if bytes > maxBytes {
		t.Errorf("cold run allocates %.1f MB, want at most %.1f MB", float64(bytes)/(1<<20), float64(maxBytes)/(1<<20))
	}
	m.StripStepCache()
	for _, width := range []int{1, 4} {
		other := run(width)
		other.StripStepCache()
		if !reflect.DeepEqual(other, m) {
			t.Fatalf("width %d diverges from width 2:\n%v\n%v", width, other, m)
		}
	}
}
