package serving

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// preemptSched is the stock preemption-capable scheduler the full-run
// tests use: chunked prefill (preemption needs an on-node prefill
// path to recompute evicted KV) under a finite capacity.
func preemptSched(kvcap int64, pol PreemptPolicy) SchedulerConfig {
	return SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: kvcap, Preempt: pol}
}

// TestPreemptValidation: preemption requires a prefill scheduler and
// a finite KV capacity, and the policy names round-trip.
func TestPreemptValidation(t *testing.T) {
	bad := []SchedulerConfig{
		{Policy: SchedDecodeOnly, KVCapTokens: 64, Preempt: PreemptNewest},
		{Preempt: PreemptNewest}, // zero value is decode-only
		{Policy: SchedChunked, ChunkTokens: 16, Preempt: PreemptNewest},          // no capacity
		{Policy: SchedPrefillFirst, KVCapTokens: 64, Preempt: PreemptPolicy(99)}, // unknown policy
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", s)
		}
	}
	good := []SchedulerConfig{
		{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 64, Preempt: PreemptNewest},
		{Policy: SchedPrefillFirst, KVCapTokens: 64, Preempt: PreemptFewestTokens},
		{Policy: SchedPrefillFirst, KVCapTokens: 64}, // off stays legal anywhere
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", s, err)
		}
	}
	for _, name := range []string{"off", "newest", "fewest-tokens"} {
		pol, err := ParsePreemptPolicy(name)
		if err != nil {
			t.Errorf("canonical name %q did not parse: %v", name, err)
		}
		if pol.String() != name {
			t.Errorf("%q parsed to %v", name, pol)
		}
	}
	if _, err := ParsePreemptPolicy("bogus"); err == nil {
		t.Error("bogus preempt policy parsed")
	}
}

// preemptReq builds the fixed-footprint request the boundary tests
// use: 16-token prompt, 4-token decode budget, 20-token lifetime KV
// reservation.
func preemptReq(id int, arrival int64) Request {
	return Request{ID: id, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 4, ArrivalCycle: arrival}
}

// TestPreemptExactExhaustionBoundary pins the capacity boundary with
// preemption armed: a capacity that exactly fits every request admits
// them all with zero evictions, while one reservation less forces
// exactly one eviction — and the evicted request still generates its
// full decode budget exactly once (recompute-on-preempt never
// double-counts tokens).
func TestPreemptExactExhaustionBoundary(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	run := func(kvcap int64) *Metrics {
		scn := Scenario{
			Name: "preempt-boundary",
			Requests: []Request{
				preemptReq(0, 0), preemptReq(1, 0), preemptReq(2, 60000),
			},
			MaxBatch: 3,
			Sched:    preemptSched(kvcap, PreemptNewest),
		}
		m, err := Run(cfg, scn)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// 3 × (16 + 4) = 60: exactly exhausted, nobody evicted.
	exact := run(60)
	if exact.Preemptions != 0 {
		t.Fatalf("kvcap=60: %d preemptions, want 0 (capacity exactly fits)", exact.Preemptions)
	}
	for _, rs := range exact.PerRequest {
		if rs.Preemptions != 0 || rs.Tokens != 4 {
			t.Errorf("kvcap=60: request %d preemptions=%d tokens=%d, want 0/4", rs.ID, rs.Preemptions, rs.Tokens)
		}
	}

	// One reservation less: request 2 arrives against a full capacity
	// and a free slot, so it evicts exactly one victim — the newest
	// admission, ties broken to the highest slot, which is request 1.
	short := run(40)
	if short.Preemptions != 1 {
		t.Fatalf("kvcap=40: %d preemptions, want exactly 1", short.Preemptions)
	}
	r0, r1, r2 := short.PerRequest[0], short.PerRequest[1], short.PerRequest[2]
	if r0.Preemptions != 0 || r2.Preemptions != 0 {
		t.Errorf("kvcap=40: wrong victims: r0=%d r2=%d preemptions", r0.Preemptions, r2.Preemptions)
	}
	if r1.Preemptions != 1 {
		t.Errorf("kvcap=40: request 1 preemptions=%d, want 1 (newest admission, highest slot)", r1.Preemptions)
	}
	// Every request retires with its exact decode budget — eviction
	// re-prefills the victim's generated prefix instead of re-decoding.
	for _, rs := range short.PerRequest {
		if rs.Tokens != 4 || rs.FinishCycle == 0 {
			t.Errorf("kvcap=40: request %d tokens=%d finish=%d, want 4/finished", rs.ID, rs.Tokens, rs.FinishCycle)
		}
	}
	if short.Tokens != 12 {
		t.Errorf("kvcap=40: fleet decoded %d tokens, want 12", short.Tokens)
	}
	// The victim's recompute shows up as extra prefill work: its prompt
	// is prefilled twice plus once per decode token it had generated —
	// deterministically one token here (evicted right after its first
	// decode step).
	if res := short.PrefillTokens - 4*16; res != 1 {
		t.Errorf("kvcap=40: resumed-token prefix %d, want 1", res)
	}
	// Determinism: the same overloaded run replays bit-identically.
	again := run(40)
	short.StripStepCache()
	again.StripStepCache()
	if !reflect.DeepEqual(short, again) {
		t.Error("kvcap=40: repeated preemption runs disagree")
	}
}

// TestPreemptVictimOrdering white-box tests tryPreempt's victim
// selection: the two policies pick different victims on a
// token-inverted running set, and full ties collapse to the highest
// slot under both — the deterministic tie-break.
func TestPreemptVictimOrdering(t *testing.T) {
	// The blocked head is the engine's row 0; each victim is a running
	// request with a row of its own after it.
	headReq := Request{ID: 99, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 8}
	const head = 0
	need := kvReserve(headReq) // 24; kvUsed 72 → exactly one 24-token victim frees enough
	type victim struct {
		req Request
		s   stream
	}
	mk := func(id, slot, tokens int, admit int64) victim {
		req := Request{ID: id, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 8}
		return victim{req, stream{
			slot:     slot,
			tokens:   tokens,
			admit:    admit,
			reserved: kvReserve(req),
		}}
	}
	build := func(pol PreemptPolicy, victims ...victim) *Engine {
		e := &Engine{
			sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 72, Preempt: pol},
			slots: make([]*stream, 4),
			reqs:  []Request{headReq},
			stats: []RequestStats{{ID: 99}},
		}
		for _, v := range victims {
			v.s.row = len(e.reqs)
			e.reqs = append(e.reqs, v.req)
			e.stats = append(e.stats, RequestStats{ID: v.req.ID})
			e.slots[v.s.slot] = &v.s
			e.kvUsed += kvReserve(v.req)
		}
		return e
	}

	// Token-inverted set: the newest admission (id 3) has MORE decode
	// progress than the oldest-but-one (id 2) — a resumed stream after
	// an earlier eviction looks like this.
	inverted := func() []victim {
		return []victim{mk(1, 0, 5, 10), mk(2, 1, 1, 20), mk(3, 2, 3, 30)}
	}
	e := build(PreemptNewest, inverted()...)
	if !e.tryPreempt(head, need) {
		t.Fatal("newest: eviction refused")
	}
	if e.slots[2] != nil || e.resume[3].tokens != 3 {
		t.Fatalf("newest: want victim id 3 (latest admit) with 3 resumed tokens, got resume=%v", e.resume)
	}
	e = build(PreemptFewestTokens, inverted()...)
	if !e.tryPreempt(head, need) {
		t.Fatal("fewest-tokens: eviction refused")
	}
	if e.slots[1] != nil || e.resume[2].tokens != 1 {
		t.Fatalf("fewest-tokens: want victim id 2 (fewest tokens) with 1 resumed token, got resume=%v", e.resume)
	}

	// Full tie (same admit, same tokens): both policies fall through to
	// the highest slot.
	tied := func() []victim {
		return []victim{mk(1, 0, 2, 10), mk(2, 1, 2, 10), mk(3, 2, 2, 10)}
	}
	for _, pol := range []PreemptPolicy{PreemptNewest, PreemptFewestTokens} {
		e = build(pol, tied()...)
		if !e.tryPreempt(head, need) {
			t.Fatalf("%v tie: eviction refused", pol)
		}
		if e.slots[2] != nil || e.resume[3].tokens != 2 {
			t.Fatalf("%v tie: want the highest slot's id 3 evicted, got resume=%v", pol, e.resume)
		}
	}

	// Anti-livelock guard: a head that has itself been preempted must
	// wait out head-of-line blocking, never evict again.
	e = build(PreemptNewest, inverted()...)
	e.stats[0].Preemptions = 1
	if e.tryPreempt(head, need) {
		t.Fatal("preempted head allowed to evict — livelock guard broken")
	}

	// All-or-nothing: when even evicting everything cannot fit the
	// head, nothing is evicted.
	big := Request{ID: 99, Model: workload.Llama3_70B, PromptLen: 64, DecodeTokens: 16}
	e = build(PreemptNewest, inverted()...)
	if e.tryPreempt(head, kvReserve(big)) { // need 80 > cap 72 even empty
		t.Fatal("unsatisfiable head evicted victims anyway")
	}
	if e.slots[0] == nil || e.slots[1] == nil || e.slots[2] == nil || len(e.resume) != 0 {
		t.Fatal("all-or-nothing violated: victims evicted for an unsatisfiable head")
	}
}

// TestPreemptTTFTFromOriginalArrival: a stream evicted while still
// prefilling re-admits later, and its TTFT is charged from the
// ORIGINAL arrival — the preemption stall is inside the deadline, not
// excused from it. AdmitCycle and QueueDelay keep their
// first-admission values.
func TestPreemptTTFTFromOriginalArrival(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	scn := Scenario{
		Name: "preempt-ttft",
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 4, ArrivalCycle: 0},
			{ID: 1, Model: workload.Llama3_70B, PromptLen: 48, DecodeTokens: 4, ArrivalCycle: 0},
			{ID: 2, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 4, ArrivalCycle: 60000},
		},
		MaxBatch: 3,
		// 20 + 52 = 72 fits; +20 for request 2 does not → one eviction,
		// landing while request 1 (long prompt, chunked behind request
		// 0's prefill) is still mid-prefill.
		Sched: preemptSched(80, PreemptNewest),
	}
	m, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Preemptions != 1 {
		t.Fatalf("%d preemptions, want 1", m.Preemptions)
	}
	r1 := m.PerRequest[1]
	if r1.Preemptions != 1 {
		t.Fatalf("request 1 preemptions=%d, want 1 (newest admission evicted)", r1.Preemptions)
	}
	// Evicted mid-prefill: first token only after the recompute, yet
	// the TTFT clock never reset.
	if r1.TTFT != r1.FirstTokenCycle-r1.ArrivalCycle || r1.ArrivalCycle != 0 {
		t.Errorf("request 1 TTFT %d not measured from original arrival (first=%d arrival=%d)",
			r1.TTFT, r1.FirstTokenCycle, r1.ArrivalCycle)
	}
	if r1.AdmitCycle != 0 || r1.QueueDelay != 0 {
		t.Errorf("request 1 admit=%d queue=%d, want the first admission's 0/0", r1.AdmitCycle, r1.QueueDelay)
	}
	// The recompute pushed its first token past the survivor's.
	if r1.FirstTokenCycle <= m.PerRequest[0].FirstTokenCycle {
		t.Errorf("evicted request's first token %d not after survivor's %d",
			r1.FirstTokenCycle, m.PerRequest[0].FirstTokenCycle)
	}
	if r1.Tokens != 4 {
		t.Errorf("request 1 decoded %d tokens, want its full budget 4", r1.Tokens)
	}
	// More prefill work than prefilling each prompt once (16+48+16):
	// the victim's partial chunks were recomputed from scratch.
	if m.PrefillTokens <= 80 {
		t.Errorf("prefill tokens %d, want > 80 (request 1's prefix recomputed)", m.PrefillTokens)
	}
}

// overloadedScenario is the committed overload acceptance scenario: a
// bursty population against a KV capacity sized well below the burst's
// working set, so admission blocks at the queue head for most of the
// run.
func overloadedScenario(t *testing.T, pol PreemptPolicy) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name: "overload/burst", Seed: 7, NumRequests: 12,
		MinPromptLen: 16, MaxPromptLen: 64,
		MinDecode: 2, MaxDecode: 6,
		MeanInterArrival: 20000, MaxBatch: 4,
		Arrival: ArrivalConfig{Kind: ArrivalBurst, Period: 60000, Duty: 0.4, Factor: 8},
		Sched:   preemptSched(200, pol),
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestPreemptBeatsHOLOnGoodput is the serving-side overload acceptance
// criterion: on the committed bursty, KV-starved scenario,
// recompute-on-preempt strictly beats head-of-line blocking on
// goodput-under-SLO. Evicting running streams for the blocked head
// pulls most first tokens forward at the cost of the few victims'
// recompute stalls; at the committed deadline the winners clear it and
// the head-of-line run's do not — a strict win on requests inside SLO
// and on goodput.
func TestPreemptBeatsHOLOnGoodput(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	hol, err := Run(cfg, overloadedScenario(t, PreemptOff))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(cfg, overloadedScenario(t, PreemptNewest))
	if err != nil {
		t.Fatal(err)
	}
	if pre.Preemptions == 0 {
		t.Fatal("overloaded scenario triggered no preemptions — not exercising the policy")
	}
	if hol.Preemptions != 0 {
		t.Fatalf("head-of-line run reports %d preemptions", hol.Preemptions)
	}
	// Both serve the identical population to completion.
	if hol.Tokens != pre.Tokens || hol.Requests != pre.Requests {
		t.Fatalf("populations diverge: HOL %d tokens/%d reqs, preempt %d/%d",
			hol.Tokens, hol.Requests, pre.Tokens, pre.Requests)
	}
	slo := SLO{TTFTCycles: preemptSLOTTFT}
	gHol, gPre := Goodput(hol, slo), Goodput(pre, slo)
	if gHol.Finished != hol.Requests || gPre.Finished != pre.Requests {
		t.Fatalf("unfinished requests: HOL %d, preempt %d", gHol.Unfinished, gPre.Unfinished)
	}
	// The strict inequality: preemption must recover goodput that
	// head-of-line blocking forfeits, on both counts.
	if !(gPre.MetSLO > gHol.MetSLO) {
		t.Errorf("preempt met-SLO %d not strictly above head-of-line %d", gPre.MetSLO, gHol.MetSLO)
	}
	if !(gPre.GoodputPerKCycle > gHol.GoodputPerKCycle) {
		t.Errorf("preempt goodput %v not strictly above head-of-line %v",
			gPre.GoodputPerKCycle, gHol.GoodputPerKCycle)
	}
	// And the deadline must actually bite under HOL — otherwise the
	// scenario is not overloaded.
	if gHol.TTFTViolations == 0 {
		t.Error("head-of-line run met every deadline — scenario not overloaded")
	}
}

// preemptSLOTTFT is the committed TTFT deadline of the acceptance
// scenario, in cycles: inside the window where preemption's pulled-in
// first tokens clear the deadline and head-of-line blocking's do not,
// with ~10k cycles of margin on both sides.
const preemptSLOTTFT = 535000
