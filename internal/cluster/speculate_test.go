// Speculative next-step simulation across a fleet: a node that misses
// the memo simulates its predicted next step on idle width, and the
// fleet's simulated metrics stay bit-identical at every width and
// against the naive reference, whether the guesses are used or not.

package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/workload"
)

// specFleetScenario is the committed speculation workload, shaped like
// the prefix-cache fleet benchmark: depth-3 sessions over 3 session
// homes, 16-token chunked prefill and a prefix cache, on 2
// affinity-routed nodes. With four slots and sparse arrivals a node
// nearly always holds a stream mid-prefill when a request is admitted,
// so the newcomer waits behind it and the no-admission guess holds;
// with two slots and denser arrivals some requests are admitted beside
// decoding streams and join the very next step, so some guesses go
// unused.
func specFleetScenario(t *testing.T, maxBatch int, meanGap float64) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "spec/fleet", Seed: 13, NumRequests: 9,
			MinPromptLen: 16, MaxPromptLen: 32,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: meanGap, MaxBatch: maxBatch,
			SessionDepth: 3,
			Sched: serving.SchedulerConfig{
				Policy: serving.SchedChunked, ChunkTokens: 16,
				PrefixCacheTokens: 1024,
			},
		},
		NumSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestClusterSpeculation: on the committed scenarios the fleet's
// metrics are bit-identical at widths 1, 2 and 4 and to the naive
// reference; the width-4 run (two tokens always idle beside the two
// fan-out workers) must launch speculations and use them, and where
// requests are admitted mid-run some must go unused. No goroutine
// outlives a run.
func TestClusterSpeculation(t *testing.T) {
	cfg := testConfig()
	pol := Policy{Kind: SessionAffinity}
	for _, tc := range []struct {
		name     string
		maxBatch int
		meanGap  float64
		unused   bool
	}{
		{"guesses-hold", 4, 60000, false},
		{"mid-run-admission", 2, 15000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scn := specFleetScenario(t, tc.maxBatch, tc.meanGap)
			naive, err := Run(cfg, scn, 2, pol, Options{StepCache: serving.StepCacheOff})
			if err != nil {
				t.Fatal(err)
			}
			naive.StripStepCache()
			for _, width := range []int{1, 2, 4} {
				before := runtime.NumGoroutine()
				m, err := Run(cfg, scn, 2, pol, Options{Parallel: width, Memo: serving.NewStepMemo()})
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				if n := settledGoroutines(before); n > before {
					t.Errorf("width %d: %d goroutines after the run, %d before", width, n, before)
				}
				st := m.StepCache
				t.Logf("width %d: memo %d/%d, speculated %d, matched %d",
					width, st.MemoHits, st.MemoHits+st.MemoMisses, st.Speculated, st.SpecHits)
				switch {
				case width == 1 && st.Speculated != 0:
					t.Errorf("width 1 speculated %d steps; it has no idle width", st.Speculated)
				case width == 4 && (st.Speculated == 0 || st.SpecHits == 0):
					t.Errorf("width 4: %d speculations, %d matched; want both > 0", st.Speculated, st.SpecHits)
				case width == 4 && tc.unused && st.SpecHits >= st.Speculated:
					t.Errorf("width 4: all %d speculations matched; the mid-run admissions should have spoiled some", st.Speculated)
				}
				if st.SpecHits > st.Speculated {
					t.Errorf("width %d: %d matches of %d speculations", width, st.SpecHits, st.Speculated)
				}
				m.StripStepCache()
				if !reflect.DeepEqual(m, naive) {
					t.Fatalf("width %d diverges from the naive reference:\n%v\n%v", width, m, naive)
				}
			}
		})
	}
}

// TestClusterDueFanOut: a fan-out round advances only the nodes with
// work before its horizon, a lone due node on the router's goroutine.
// On a 3-node round-robin fleet whose nodes take 1, 2 and 4 decode
// tokens per request, nodes go idle at different times, so rounds see
// zero to three due nodes. At widths 1, 2 and 4, with speculation live
// above width 1, the metrics are bit-identical to the naive reference
// and no goroutine outlives a run.
func TestClusterDueFanOut(t *testing.T) {
	cfg := testConfig()
	decode := []int{1, 2, 4}
	var scn Scenario
	for i := 0; i < 6; i++ {
		scn.Requests = append(scn.Requests, Request{
			ID: i, Model: workload.Llama3_70B, PromptLen: 16 + 8*(i%3),
			DecodeTokens: decode[i%3], ArrivalCycle: int64(i) * 3000, Session: i,
		})
	}
	scn.Name, scn.MaxBatch = "test/due", 2
	pol := Policy{Kind: RoundRobin}
	naive, err := Run(cfg, scn, 3, pol, Options{StepCache: serving.StepCacheOff})
	if err != nil {
		t.Fatal(err)
	}
	naive.StripStepCache()
	if a, b, c := naive.PerNode[0].Makespan, naive.PerNode[1].Makespan, naive.PerNode[2].Makespan; a == b || b == c || a == c {
		t.Fatalf("node makespans %d, %d, %d: want nodes idle at different times", a, b, c)
	}
	for _, width := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		m, err := Run(cfg, scn, 3, pol, Options{Parallel: width, Memo: serving.NewStepMemo()})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("width %d: %d goroutines after the run, %d before", width, n, before)
		}
		if width == 4 && m.StepCache.Speculated == 0 {
			t.Errorf("width 4 speculated nothing; one token is always idle beside the three nodes")
		}
		m.StripStepCache()
		if !reflect.DeepEqual(m, naive) {
			t.Fatalf("width %d diverges from the naive reference:\n%v\n%v", width, m, naive)
		}
	}
}

// settledGoroutines gives goroutines that have finished their work a
// moment to exit and returns the count once it is at most want (or
// after a second).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}
