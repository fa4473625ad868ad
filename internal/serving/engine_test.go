package serving

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// driveEngine runs a scenario through the incremental Engine the way
// the cluster router does: advance to each arrival horizon, submit,
// then drain.
func driveEngine(t *testing.T, scn Scenario, interleave bool) *Metrics {
	t.Helper()
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(testConfig(), scn.MaxBatch, scn.IncludeAV, stride, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(scn.Requests))
	copy(reqs, scn.Requests)
	sortRequests(reqs)
	for _, r := range reqs {
		if interleave {
			if err := eng.AdvanceTo(r.ArrivalCycle); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics()
}

// TestEngineMatchesRun: driving the Engine incrementally — advancing
// the clock to every arrival horizon before submitting, exactly the
// cluster router's interleaving — produces metrics bit-identical to
// the one-shot Run. This is the single-node half of the cluster
// degenerate-equivalence guarantee.
func TestEngineMatchesRun(t *testing.T) {
	scn := testScenario(t)
	whole, err := Run(testConfig(), scn)
	if err != nil {
		t.Fatal(err)
	}
	// StepCache counters are diagnostics outside the bit-identity
	// contract (a later run hits memo entries an earlier run filled).
	whole.StripStepCache()
	batch := driveEngine(t, scn, false)
	batch.StripStepCache()
	if !reflect.DeepEqual(whole, batch) {
		t.Fatalf("submit-all-then-drain diverges from Run:\n%v\n%v", whole, batch)
	}
	stepped := driveEngine(t, scn, true)
	stepped.StripStepCache()
	if !reflect.DeepEqual(whole, stepped) {
		t.Fatalf("interleaved AdvanceTo/Submit diverges from Run:\n%v\n%v", whole, stepped)
	}
}

// TestEngineSubmitOrder: the engine rejects out-of-arrival-order and
// duplicate submissions — the invariants the router relies on.
func TestEngineSubmitOrder(t *testing.T) {
	scn := Scenario{
		Requests: []Request{{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1}},
		MaxBatch: 1,
	}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(testConfig(), 1, false, stride, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ok := Request{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1, ArrivalCycle: 100}
	if err := eng.Submit(ok); err != nil {
		t.Fatal(err)
	}
	dup := ok
	if err := eng.Submit(dup); err == nil {
		t.Fatal("duplicate request ID accepted")
	}
	early := Request{ID: 1, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1, ArrivalCycle: 50}
	if err := eng.Submit(early); err == nil {
		t.Fatal("out-of-arrival-order submission accepted")
	}
	if got := eng.OutstandingTokens(); got != 1 {
		t.Fatalf("outstanding tokens = %d, want 1", got)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := eng.OutstandingTokens(); got != 0 {
		t.Fatalf("outstanding tokens after drain = %d, want 0", got)
	}
	if now := eng.Now(); now <= 100 {
		t.Fatalf("clock %d did not pass the arrival fast-forward", now)
	}
}

// TestEngineAdvanceToIdle: AdvanceTo never moves an empty engine's
// clock past the horizon — a later submission with an earlier arrival
// than any pending work must still be admitted on time. This is the
// property that makes interleaved routing equal to full-knowledge
// scheduling.
func TestEngineAdvanceToIdle(t *testing.T) {
	scn := Scenario{
		Requests: []Request{{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1}},
		MaxBatch: 2,
	}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWith(testConfig(), 2, false, stride, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := Request{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1, ArrivalCycle: 600}
	if err := eng.Submit(first); err != nil {
		t.Fatal(err)
	}
	// Poll an earlier horizon: the pending arrival is beyond it, so
	// the clock must hold instead of jumping ahead of the router.
	if err := eng.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if now := eng.Now(); now != 0 {
		t.Fatalf("idle engine clock moved to %d on AdvanceTo(500)", now)
	}
	second := Request{ID: 1, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1, ArrivalCycle: 1000}
	if err := eng.Submit(second); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.PerRequest[0].AdmitCycle != 600 {
		t.Fatalf("request 0 admitted at %d, want its arrival 600", m.PerRequest[0].AdmitCycle)
	}
	if m.PerRequest[1].AdmitCycle < 1000 {
		t.Fatalf("request 1 admitted at %d, before its arrival 1000", m.PerRequest[1].AdmitCycle)
	}
}
