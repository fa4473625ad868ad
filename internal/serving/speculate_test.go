// In-flight memo claims and speculative next-step simulation: one
// simulation per signature however many engines miss it at once, and
// a speculated step that is bit-identical to the step it predicts.

package serving

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWaiters blocks until n engines wait on the claim of key,
// reporting false if that takes longer than 10s.
func awaitWaiters(m *StepMemo, key string, n int) bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		m.mu.Lock()
		c := m.inflight[key]
		w := c != nil && c.waiters >= n
		m.mu.Unlock()
		if w {
			return true
		}
	}
	return false
}

// TestStepMemoInFlight: concurrent misses of one signature cost one
// simulation, a failed owner hands the signature on, and a flush
// during a claim neither strands a waiter nor drops the result.
func TestStepMemoInFlight(t *testing.T) {
	const n = 8
	want := &stepResult{cycles: 42}
	want.counters.L2Hits = 7

	t.Run("one-owner", func(t *testing.T) {
		memo := NewStepMemo()
		var simulated atomic.Int32
		got := make([]*stepResult, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, own := memo.claim("k")
				if own != nil {
					simulated.Add(1)
					// Hold the claim until every other engine waits on it.
					if !awaitWaiters(memo, "k", n-1) {
						t.Error("waiters never arrived")
					}
					r = want
					memo.publish("k", own, r)
				}
				got[i] = r
			}(i)
		}
		wg.Wait()
		if s := simulated.Load(); s != 1 {
			t.Fatalf("%d engines simulated the signature, want 1", s)
		}
		for i, r := range got {
			if r != want {
				t.Fatalf("engine %d replayed %+v, want %+v", i, r, want)
			}
		}
		if memo.Len() != 1 || len(memo.inflight) != 0 {
			t.Fatalf("memo holds %d entries and %d claims, want 1 and 0", memo.Len(), len(memo.inflight))
		}
	})

	t.Run("owner-fails", func(t *testing.T) {
		memo := NewStepMemo()
		_, first := memo.claim("k")
		var owners atomic.Int32
		got := make([]*stepResult, n-1)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, own := memo.claim("k")
				if own != nil {
					owners.Add(1)
					r = want
					memo.publish("k", own, r)
				}
				got[i] = r
			}(i)
		}
		if !awaitWaiters(memo, "k", n-1) {
			t.Fatal("waiters never arrived")
		}
		memo.release("k", first)
		wg.Wait()
		if o := owners.Load(); o != 1 {
			t.Fatalf("%d waiters took over the released signature, want 1", o)
		}
		for i, r := range got {
			if r != want {
				t.Fatalf("waiter %d replayed %+v, want %+v", i, r, want)
			}
		}
	})

	t.Run("flush", func(t *testing.T) {
		const key = "in-flight flush test"
		memo := SharedStepMemo()
		_, own := memo.claim(key)
		if own == nil {
			t.Fatal("fresh signature not claimed")
		}
		got := make(chan *stepResult, 1)
		go func() {
			r, _ := memo.claim(key)
			got <- r
		}()
		if !awaitWaiters(memo, key, 1) {
			t.Fatal("waiter never arrived")
		}
		FlushSharedCaches()
		memo.publish(key, own, want)
		select {
		case r := <-got:
			if r != want {
				t.Fatalf("waiter replayed %+v, want %+v", r, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter still blocked 10s after the owner published")
		}
		if r, ok := memo.lookup([]byte(key)); !ok || r != want {
			t.Fatalf("published result lost across the flush: %+v %v", r, ok)
		}
		FlushSharedCaches()
	})
}

// TestSpecPoolWidth: tokens bound fan-out and speculation together,
// and speculation never waits for one.
func TestSpecPoolWidth(t *testing.T) {
	p := NewSpecPool(2)
	p.Acquire()
	if !p.tryAcquire() {
		t.Fatal("second token of a width-2 pool not available")
	}
	if p.tryAcquire() {
		t.Fatal("width-2 pool handed out a third token")
	}
	p.Release()
	if !p.tryAcquire() {
		t.Fatal("released token not available again")
	}
	p.Release()
	p.Release()
	if !NewSpecPool(0).tryAcquire() {
		t.Fatal("a pool is at least one token wide")
	}
}

// TestSpeculationPredictsNextStep drives one engine with speculation
// on and no admission after the first step, so every prediction must
// match the step that follows it, under each scheduler policy; the
// metrics must equal the naive reference path.
func TestSpeculationPredictsNextStep(t *testing.T) {
	for _, sched := range []SchedulerConfig{
		{},
		{Policy: SchedChunked, ChunkTokens: 16},
		{Policy: SchedPrefillFirst},
	} {
		scn, err := NewScenario(ScenarioConfig{
			Seed: 3, NumRequests: 4,
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 5000, MaxBatch: 4,
			Sched: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range scn.Requests {
			scn.Requests[i].ArrivalCycle = 0
		}
		cfg := testConfig()
		stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngineWith(cfg, scn.MaxBatch, scn.IncludeAV, stride, RunOptions{Memo: NewStepMemo(), Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		pool := NewSpecPool(1)
		eng.SetSpecPool(pool)
		for _, r := range scn.Requests {
			if err := eng.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		err = eng.Drain()
		pool.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got := eng.Metrics()
		st := got.StepCache
		if st.Speculated == 0 || st.SpecHits != st.Speculated {
			t.Fatalf("%v: %d of %d speculations matched the next step, want all and at least one",
				sched.Policy, st.SpecHits, st.Speculated)
		}
		naive, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOff})
		if err != nil {
			t.Fatal(err)
		}
		got.StripStepCache()
		naive.StripStepCache()
		if !reflect.DeepEqual(got, naive) {
			t.Fatalf("%v: speculating engine diverges from naive:\n%v\n%v", sched.Policy, got, naive)
		}
	}
}
