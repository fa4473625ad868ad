package llamcat

import (
	"runtime"
	"testing"
)

// recordingSlack is how many more objects a recorded cold run may
// allocate than the same run unrecorded: the collector and its buffers,
// not an allocation per event.
const recordingSlack = 32

// TestColdRunAllocations pins the heap objects that one cold run of each
// serving and fleet configuration allocates. Every row runs at scale 32
// after the shared step memo is flushed, so the run simulates every
// step it needs, at the default fan-out width. Each ceiling is at most
// 1.25x the count measured with Go 1.24 when it was set: room for
// another Go release's runtime and for the few dozen objects fleet
// speculation timing moves, but not for a run that builds a step
// simulator per simulated step, which allocates many times more.
func TestColdRunAllocations(t *testing.T) {
	const scale = 32
	const minPrompt, maxPrompt = 512 / scale, 2048 / scale
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale

	defaultScn, err := DefaultServeScenario(scale)
	if err != nil {
		t.Fatal(err)
	}
	// All eight requests arrive at cycle 0 against a 4-slot batch: the
	// occupancy-bound regime.
	saturated := serveScenario(t, ServeScenarioConfig{
		Name: "bench/saturated", Seed: 2, NumRequests: 8,
		MinPromptLen: minPrompt, MaxPromptLen: 2 * minPrompt,
		MinDecode: 2, MaxDecode: 4,
		MeanInterArrival: 0, MaxBatch: 4,
	})
	chunked := serveScenario(t, ServeScenarioConfig{
		Name: "bench/chunked", Seed: 1, NumRequests: 8,
		MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
		MinDecode: 4, MaxDecode: 8,
		MeanInterArrival: 30000, MaxBatch: 4,
		Sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 4 * (maxPrompt + 8)},
	})
	fleet, err := DefaultClusterScenario(scale)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := ParseArrival("burst:80000:0.4:8")
	if err != nil {
		t.Fatal(err)
	}
	// KV caches hold about 1.5 maximal requests per node, so the burst
	// head blocks on KV, preemption fires and the router sheds.
	overload := clusterScenario(t, ClusterScenarioConfig{
		ScenarioConfig: ServeScenarioConfig{
			Name: "bench/overload", Seed: 9, NumRequests: 16,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: burst,
			Sched: SchedulerConfig{
				Policy: SchedChunked, ChunkTokens: 16,
				KVCapTokens: 3 * (maxPrompt + 5) / 2, Preempt: PreemptNewest,
			},
		},
		NumSessions: 4,
	})
	shed := OverloadConfig{SaturationTokens: 3 * (maxPrompt + 5), MaxRetries: 3, BackoffBase: 20000, Forward: true}
	faulty := clusterScenario(t, ClusterScenarioConfig{
		ScenarioConfig: ServeScenarioConfig{
			Name: "bench/faulty", Seed: 11, NumRequests: 16,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 10000, MaxBatch: 2,
			Sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16},
		},
		NumSessions: 4,
	})
	// Node 0 crashes inside the ~160k-cycle arrival window, so requests
	// are in flight when it dies.
	faults := FaultConfig{
		Crashes:       []NodeCrash{{Node: 0, At: 60000, Rejoin: 220000}},
		Stragglers:    []NodeStraggler{{Node: 1, From: 100000, To: 300000, Factor: 3}},
		DetectLatency: 5000,
	}

	serve := func(scn ServeScenario, pols ...Policy) func(t *testing.T) {
		return func(t *testing.T) {
			for _, pol := range pols {
				if _, err := Serve(cfg, scn, pol); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cluster := func(scn ClusterScenario, nodes int, opts ClusterOptions, routers ...RouterPolicy) func(t *testing.T) {
		return func(t *testing.T) {
			for _, router := range routers {
				m, err := ServeClusterWith(cfg, scn, nodes, router, PolicyDynMGBMA, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(opts.Faults.Crashes) > 0 && m.Redispatched == 0 {
					t.Fatal("the crash redispatched no in-flight request")
				}
			}
		}
	}
	traced := func(t *testing.T) {
		col := NewTraceCollector(10000)
		opts := ServeOptions{Recorder: col.Node(0), SampleEvery: col.SampleEvery()}
		if _, err := ServeWith(cfg, defaultScn, PolicyDynMGBMA, opts); err != nil {
			t.Fatal(err)
		}
		if len(col.Events()) == 0 {
			t.Fatal("the recorded run recorded no events")
		}
	}

	for _, row := range []struct {
		name    string
		ceiling uint64
		run     func(t *testing.T)
		// unrecorded, if set, is run without telemetry: run may allocate
		// at most recordingSlack objects more.
		unrecorded func(t *testing.T)
	}{
		{name: "Serve_Default", ceiling: 2_490, run: serve(defaultScn, PolicyUnopt, PolicyDynMGBMA)},
		{name: "Serve_Saturated", ceiling: 1_160, run: serve(saturated, PolicyDynMGBMA)},
		{name: "Serve_Chunked", ceiling: 1_305, run: serve(chunked, PolicyDynMGBMA)},
		{name: "Serve_Traced", ceiling: 1_275, run: traced, unrecorded: serve(defaultScn, PolicyDynMGBMA)},
		{name: "Cluster_Smoke", ceiling: 9_500, run: cluster(fleet, 4, ClusterOptions{}, RouterPowerOfTwo, RouterSessionAffinity)},
		{name: "Cluster_Overload", ceiling: 2_650, run: cluster(overload, 2, ClusterOptions{Overload: shed}, RouterLeastOutstanding)},
		{name: "Cluster_Faulty", ceiling: 2_820, run: cluster(faulty, 2, ClusterOptions{Faults: faults}, RouterLeastOutstanding)},
	} {
		t.Run(row.name, func(t *testing.T) {
			n := coldMallocs(t, row.run)
			t.Logf("cold run: %d objects (ceiling %d)", n, row.ceiling)
			if n > row.ceiling {
				t.Errorf("cold run allocated %d objects, want at most %d", n, row.ceiling)
			}
			if row.unrecorded == nil {
				return
			}
			base := coldMallocs(t, row.unrecorded)
			t.Logf("unrecorded cold run: %d objects", base)
			if n > base+recordingSlack {
				t.Errorf("recording cost %d objects over the unrecorded run's %d, want at most %d", n-base, base, recordingSlack)
			}
		})
	}
}

// coldMallocs flushes the shared step memo and counts the heap objects
// run allocates.
func coldMallocs(t *testing.T, run func(t *testing.T)) uint64 {
	t.Helper()
	FlushStepCaches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(t)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func serveScenario(t *testing.T, c ServeScenarioConfig) ServeScenario {
	t.Helper()
	scn, err := NewServeScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func clusterScenario(t *testing.T, c ClusterScenarioConfig) ClusterScenario {
	t.Helper()
	scn, err := NewClusterScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}
