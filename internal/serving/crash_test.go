package serving

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// crashReq builds the fixed-footprint request of the crash unit tests.
func crashReq(id int, arrival int64) Request {
	return Request{ID: id, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 6, ArrivalCycle: arrival}
}

// crashEngine builds an engine sized for the given request population
// (the stride must cover the largest sequence, like every other
// engine-level test).
func crashEngine(t *testing.T, maxBatch int, opts RunOptions, reqs ...Request) *Engine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	stride, err := StreamStride(reqs, false, opts.Sched)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineWith(cfg, maxBatch, false, stride, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCrashEvictsEverything: a crash mid-run returns every unfinished
// request — running streams with their decode progress, queued and
// not-yet-arrived ones with zero — wipes the KV ledger, and leaves
// retired work untouched. The victims' stats rows leave the engine so
// the node that finally serves them owns their accounting.
func TestCrashEvictsEverything(t *testing.T) {
	reqs := []Request{crashReq(0, 0), crashReq(1, 0), crashReq(2, 1<<40)}
	// MaxBatch 1: strict serial service.
	e := crashEngine(t, 1, RunOptions{}, reqs...)
	for _, r := range reqs {
		if err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Finish request 0 entirely, then advance until request 1 is
	// mid-decode (admission is an iteration-boundary affair, like the
	// Drain loop drives it).
	for e.tokensOf(0) < 6 || e.tokensOf(1) == 0 {
		e.admit()
		if err := e.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	progress := e.tokensOf(1)
	if progress <= 0 || progress >= 6 {
		t.Fatalf("request 1 decode progress %d, want mid-stream", progress)
	}
	victims, lost := e.Crash()
	if len(victims) != 2 {
		t.Fatalf("%d victims, want 2 (requests 1 and 2)", len(victims))
	}
	// Slot victims first (slot order), then queued/pending arrivals.
	if victims[0].Req.ID != 1 || victims[0].Tokens != progress {
		t.Errorf("victim 0 = request %d with %d tokens, want 1/%d", victims[0].Req.ID, victims[0].Tokens, progress)
	}
	if victims[1].Req.ID != 2 || victims[1].Tokens != 0 {
		t.Errorf("victim 1 = request %d with %d tokens, want 2/0", victims[1].Req.ID, victims[1].Tokens)
	}
	if lost != int64(progress) {
		t.Errorf("lost tokens %d, want %d", lost, progress)
	}
	// The running victim carries its recorded first-token timing into
	// the crash; the never-arrived one carries nothing.
	if victims[0].Stats.FirstTokenCycle == 0 || victims[0].Stats.TTFT == 0 {
		t.Errorf("running victim lost its first-token stats: %+v", victims[0].Stats)
	}
	if victims[1].Stats.FirstTokenCycle != 0 {
		t.Errorf("pending victim has a first token: %+v", victims[1].Stats)
	}
	// The node is empty: no outstanding work, no KV, only the retired
	// request's stats remain.
	if e.OutstandingTokens() != 0 || e.kvUsed != 0 || e.unfinished != 0 {
		t.Errorf("post-crash residue: outstanding=%d kvUsed=%d unfinished=%d",
			e.OutstandingTokens(), e.kvUsed, e.unfinished)
	}
	if e.Submitted() != 1 {
		t.Fatalf("post-crash stats rows %d, want 1 (the retired request)", e.Submitted())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Requests != 1 || m.Tokens != 6+int64(progress) {
		t.Errorf("post-crash metrics: %d requests %d tokens, want 1 retired and 6+%d decoded",
			m.Requests, m.Tokens, progress)
	}
	if m.PerRequest[0].ID != 0 || m.PerRequest[0].Tokens != 6 {
		t.Errorf("retired request perturbed by the crash: %+v", m.PerRequest[0])
	}
	// A crashed node accepts fresh work again (rejoin reuses the same
	// engine object at fleet level conceptually; here: resubmission of a
	// victim must be legal since its stats row is gone).
	if err := e.SubmitResume(victims[0].Req, victims[0].Tokens); err != nil {
		t.Fatalf("resubmitting a crash victim after the crash: %v", err)
	}
}

// tokensOf reads a request's decode progress off the engine (test
// helper; 0 when not running).
func (e *Engine) tokensOf(id int) int {
	for _, s := range e.slots {
		if s != nil && s.req.ID == id {
			return s.tokens
		}
	}
	if i, ok := e.statIdx[id]; ok && e.stats[i].FinishCycle != 0 {
		return e.stats[i].Tokens
	}
	return 0
}

// TestCrashWipesPrefixCache: a rejoining node reintegrates cold — the
// session prefix cache is rebuilt from scratch after a crash.
func TestCrashWipesPrefixCache(t *testing.T) {
	r := crashReq(0, 0)
	e := crashEngine(t, 2, RunOptions{
		Sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 1 << 20, PrefixCacheTokens: 1 << 20},
	}, r)
	r.Session = 5
	if err := e.Submit(r); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if e.CachedPrefix(5) == 0 {
		t.Fatal("retired session left nothing in the prefix cache — scenario broken")
	}
	if _, lost := e.Crash(); lost != 0 {
		t.Fatalf("crash on an idle node lost %d tokens", lost)
	}
	if got := e.CachedPrefix(5); got != 0 {
		t.Fatalf("prefix cache survived the crash: %d cached tokens for session 5", got)
	}
}

// TestSubmitResumeValidation: the resume point must be a proper decode
// prefix — negative values and completed budgets are rejected.
func TestSubmitResumeValidation(t *testing.T) {
	e := crashEngine(t, 2, RunOptions{}, crashReq(0, 0))
	if err := e.SubmitResume(crashReq(0, 0), -1); err == nil {
		t.Error("negative resume point accepted")
	}
	if err := e.SubmitResume(crashReq(0, 0), 6); err == nil {
		t.Error("resume point == decode budget accepted (nothing left to generate)")
	}
	if err := e.SubmitResume(crashReq(0, 0), 0); err != nil {
		t.Errorf("resume point 0 rejected: %v", err)
	}
}

// TestSubmitResumeZeroIsSubmit: SubmitResume with a zero resume point
// is bit-identical to a plain Submit.
func TestSubmitResumeZeroIsSubmit(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	run := func(resume bool) *Metrics {
		e := crashEngine(t, 2, RunOptions{}, crashReq(0, 0))
		var err error
		if resume {
			err = e.SubmitResume(crashReq(0, 0), 0)
		} else {
			err = e.Submit(crashReq(0, 0))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		m := e.Metrics()
		m.StripStepCache()
		return m
	}
	if a, b := run(false), run(true); !reflect.DeepEqual(a, b) {
		t.Errorf("SubmitResume(req, 0) diverged from Submit:\n%v\n%v", a, b)
	}
}

// TestSubmitResumeDecodesOnlyTheRemainder: a resumed request decodes
// exactly its remaining budget (the carried tokens were generated on
// the crashed node and are never generated twice), while the retired
// row still reports the full lifetime budget. Under a prefill
// scheduler the carried tokens come back as recomputed prefill.
func TestSubmitResumeDecodesOnlyTheRemainder(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	for _, tc := range []struct {
		name  string
		sched SchedulerConfig
	}{
		{"decode-only", SchedulerConfig{}},
		{"chunked", SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 1 << 20}},
	} {
		e := crashEngine(t, 2, RunOptions{Sched: tc.sched}, crashReq(0, 0))
		if err := e.SubmitResume(crashReq(0, 0), 4); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		m := e.Metrics()
		if m.Tokens != 2 {
			t.Errorf("%s: resumed engine decoded %d tokens, want exactly the remainder 2", tc.name, m.Tokens)
		}
		rs := m.PerRequest[0]
		if rs.Tokens != 6 || rs.FinishCycle == 0 {
			t.Errorf("%s: retired row tokens=%d finish=%d, want the full budget 6, finished", tc.name, rs.Tokens, rs.FinishCycle)
		}
		if tc.sched.Policy != SchedDecodeOnly && m.PrefillTokens != 16+4 {
			t.Errorf("%s: prefill tokens %d, want prompt 16 + carried 4", tc.name, m.PrefillTokens)
		}
	}
}

// TestSetSlowdownScalesStepCosts: under a straggler factor k every
// step costs exactly k× its nominal cycles, so a closed single-node
// run's makespan scales exactly k× — and factor 1 (or below) is the
// untouched fast path.
func TestSetSlowdownScalesStepCosts(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	run := func(factor int64, mode StepCacheMode) int64 {
		e := crashEngine(t, 2, RunOptions{StepCache: mode}, crashReq(0, 0))
		e.SetSlowdown(factor)
		if err := e.Submit(crashReq(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e.Metrics().Makespan
	}
	base := run(1, StepCacheOn)
	if base == 0 {
		t.Fatal("baseline makespan 0")
	}
	for _, k := range []int64{2, 5} {
		if got := run(k, StepCacheOn); got != k*base {
			t.Errorf("factor %d makespan %d, want exactly %d×%d", k, got, k, base)
		}
		// The memo stores UNSCALED cycles: the slowdown must scale
		// identically whether a step executes or replays.
		if got := run(k, StepCacheOff); got != k*base {
			t.Errorf("factor %d (cache off) makespan %d, want exactly %d×%d", k, got, k, base)
		}
	}
	if run(0, StepCacheOn) != base {
		t.Error("factor 0 not clamped to the unscaled fast path")
	}
}
