package serving

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/hwprof"
	"repro/internal/workload"
)

// preemptScenario builds a KV-pressured chunked-prefill population
// that is known to preempt: tight KV capacity, newest-victim policy.
func preemptScenario(t *testing.T) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name:             "test/preempt",
		Seed:             11,
		NumRequests:      8,
		Models:           []workload.ModelConfig{workload.Llama3_70B},
		MinPromptLen:     48,
		MaxPromptLen:     96,
		MinDecode:        2,
		MaxDecode:        4,
		MeanInterArrival: 2000,
		MaxBatch:         4,
		Sched: SchedulerConfig{
			Policy: SchedChunked, ChunkTokens: 16,
			KVCapTokens: 192, Preempt: PreemptNewest,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestHWProfReconciliation: the profile's summed per-step deltas are
// bit-identical to the engine's whole-run aggregate counters, phase
// and request attributions both sum back to the busy cycles, and
// every request appears exactly once.
func TestHWProfReconciliation(t *testing.T) {
	scn := testScenario(t)
	m, err := RunWith(testConfig(), scn, RunOptions{HWProf: hwprof.Spec{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m.HW == nil {
		t.Fatal("HWProf enabled but Metrics.HW is nil")
	}
	if m.HW.Total != m.Counters {
		t.Fatalf("summed per-step deltas diverge from whole-run counters:\nprofile: %+v\nengine:  %+v",
			m.HW.Total, m.Counters)
	}
	if m.HW.BusyCycles != m.Cycles || m.HW.Steps != m.Steps {
		t.Fatalf("profile busy=%d steps=%d, engine busy=%d steps=%d",
			m.HW.BusyCycles, m.HW.Steps, m.Cycles, m.Steps)
	}
	var phaseCycles, reqCycles int64
	for _, ph := range m.HW.Phases {
		phaseCycles += ph.Cycles
	}
	for _, r := range m.HW.Requests {
		reqCycles += r.Cycles
	}
	if phaseCycles != m.Cycles || reqCycles != m.Cycles {
		t.Errorf("attribution cycles: phases=%d requests=%d, want %d", phaseCycles, reqCycles, m.Cycles)
	}
	if len(m.HW.Requests) != len(scn.Requests) {
		t.Errorf("profile covers %d requests, scenario has %d", len(m.HW.Requests), len(scn.Requests))
	}
}

// TestHWProfMemoBitIdentity: the memoized fast path stores and
// replays exact counter deltas, so the entire profile — attribution,
// percentiles, classified buckets — is byte-identical with the memo
// on and off.
func TestHWProfMemoBitIdentity(t *testing.T) {
	scn := preemptScenario(t)
	opts := RunOptions{HWProf: hwprof.Spec{Enabled: true, SampleEvery: 20000}}

	opts.StepCache = StepCacheOn
	opts.Memo = NewStepMemo()
	mOn, err := RunWith(testConfig(), scn, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.StepCache = StepCacheNoMemo
	opts.Memo = nil
	mOff, err := RunWith(testConfig(), scn, opts)
	if err != nil {
		t.Fatal(err)
	}
	jOn, err := json.Marshal(mOn.HW)
	if err != nil {
		t.Fatal(err)
	}
	jOff, err := json.Marshal(mOff.HW)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jOn, jOff) {
		t.Fatalf("profiles diverge between memo on and off:\non:  %s\noff: %s", jOn, jOff)
	}
	if mOn.HW.Total != mOn.Counters {
		t.Fatalf("memo-on profile does not reconcile: %+v vs %+v", mOn.HW.Total, mOn.Counters)
	}
}

// TestHWProfRecomputePhaseAttribution: after a preemption the victim's
// re-prefill is attributed to the recompute-preempt phase, not decode
// or plain prefill, and the recompute work is the kind of prefill
// tokens the preemption log predicts.
func TestHWProfRecomputePhaseAttribution(t *testing.T) {
	scn := preemptScenario(t)
	m, err := RunWith(testConfig(), scn, RunOptions{HWProf: hwprof.Spec{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Preemptions == 0 {
		t.Fatal("scenario did not preempt; tighten KVCapTokens")
	}
	rec := m.HW.Phases[hwprof.PhaseRecomputePreempt]
	if rec.Steps == 0 || rec.Tokens == 0 || rec.Cycles == 0 {
		t.Fatalf("preempting run attributed nothing to recompute-preempt: %+v", rec)
	}
	if m.HW.Phases[hwprof.PhaseRecomputeRedispatch].Tokens != 0 {
		t.Error("single-node run attributed tokens to recompute-redispatch")
	}
	// Decode token attribution must match the generated token count
	// exactly — recompute chunks may not leak into the decode phase.
	if dec := m.HW.Phases[hwprof.PhaseDecode]; dec.Tokens != m.Tokens {
		t.Errorf("decode phase carries %d tokens, engine generated %d", dec.Tokens, m.Tokens)
	}
	// All prefill-side tokens: plain prefill ran the prompts not yet
	// resident, recompute re-ran evicted prefixes; together they equal
	// the engine's total prefilled tokens.
	pre := m.HW.Phases[hwprof.PhasePrefill].Tokens + rec.Tokens
	if pre != m.PrefillTokens {
		t.Errorf("prefill+recompute tokens = %d, engine prefilled %d", pre, m.PrefillTokens)
	}
}

// TestHWProfRedispatchPhaseAttribution: a request resumed via
// SubmitResume (the crash-recovery path) re-prefills under the
// recompute-redispatch phase.
func TestHWProfRedispatchPhaseAttribution(t *testing.T) {
	scn := testScenario(t)
	scn.Sched = SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(testConfig(), scn.MaxBatch, scn.IncludeAV, stride,
		RunOptions{HWProf: hwprof.Spec{Enabled: true}, Sched: scn.Sched})
	if err != nil {
		t.Fatal(err)
	}
	// First request arrives as a redispatched crash victim carrying one
	// generated token; the rest arrive normally.
	for i, req := range scn.Requests {
		req.ArrivalCycle = 0
		if i == 0 {
			if err := eng.SubmitResume(req, 1); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := eng.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	red := m.HW.Phases[hwprof.PhaseRecomputeRedispatch]
	if red.Tokens == 0 || red.Cycles == 0 {
		t.Fatalf("redispatched request attributed nothing to recompute-redispatch: %+v", red)
	}
	// The recomputed KV is the victim's prompt plus its generated
	// tokens.
	if want := int64(scn.Requests[0].PromptLen + 1); red.Tokens != want {
		t.Errorf("recompute-redispatch tokens = %d, want %d", red.Tokens, want)
	}
	if m.HW.Phases[hwprof.PhaseRecomputePreempt].Tokens != 0 {
		t.Error("no preemption ran, but recompute-preempt carries tokens")
	}
}

// TestHWProfOffBitInert: with the profiler off the metrics carry no
// HW block and are bit-identical to a run that never knew about
// profiling (the zero RunOptions path the PR-9 goldens pin).
func TestHWProfOffBitInert(t *testing.T) {
	scn := testScenario(t)
	base, err := RunWith(testConfig(), scn, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.HW != nil {
		t.Fatal("HWProf disabled but Metrics.HW is non-nil")
	}
	prof, err := RunWith(testConfig(), scn, RunOptions{HWProf: hwprof.Spec{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	base.StripStepCache()
	prof.StripStepCache()
	prof.HW = nil
	jBase, _ := json.Marshal(base)
	jProf, _ := json.Marshal(prof)
	if !bytes.Equal(jBase, jProf) {
		t.Fatal("profiling changed the simulated metrics")
	}
	// And the serialized form hides the field entirely when off, so
	// -json artifacts are byte-unchanged.
	if bytes.Contains(jBase, []byte(`"HW"`)) {
		t.Fatal("disabled profile leaks an HW field into JSON")
	}
}
