package serving

import (
	"math"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/goldentest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// schedTestScenario is the fixed population the golden-equivalence
// test runs: committed before the prefill subsystem existed, so the
// golden numbers below are the PRE-prefill engine's output.
func schedTestScenario(t *testing.T, sched SchedulerConfig) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name: "golden/decode-only", Seed: 7, NumRequests: 8,
		MinPromptLen: 16, MaxPromptLen: 48,
		MinDecode: 2, MaxDecode: 4,
		MeanInterArrival: 5000, MaxBatch: 3,
		Sched: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// decodeGoldenRow is the pinned slice of a decode-only serving run:
// the fields the golden file commits, byte-exact (see
// internal/goldentest).
type decodeGoldenRow struct {
	Throttle  string  `json:"throttle"`
	Arbiter   string  `json:"arbiter"`
	Makespan  int64   `json:"makespan"`
	Cycles    int64   `json:"cycles"`
	Tokens    int64   `json:"tokens"`
	Steps     int64   `json:"steps"`
	LatP50    float64 `json:"token_latency_p50"`
	LatP99    float64 `json:"token_latency_p99"`
	QueueP99  float64 `json:"queue_delay_p99"`
	L2Hits    int64   `json:"l2_hits"`
	DRAMReads int64   `json:"dram_reads"`
}

// TestDecodeOnlyGoldenEquivalence pins the acceptance criterion that
// the decode-only scheduler is bit-identical to the pre-prefill
// serving engine: the golden rows in testdata were captured from
// serving.Run on this exact scenario at the commit BEFORE the prefill
// subsystem was introduced (the original literal values are preserved
// verbatim in the JSON). Both the zero-value scheduler (what every
// pre-existing caller passes) and an explicitly spelled decode-only
// configuration must reproduce them, on the fast path and on the
// naive reference path.
func TestDecodeOnlyGoldenEquivalence(t *testing.T) {
	configs := []struct {
		throttle string
		arb      arbiter.Kind
	}{
		{"none", arbiter.FCFS},
		{"dynmg", arbiter.BMA},
	}
	scheds := []SchedulerConfig{
		{}, // the zero value every pre-existing caller passes
		{Policy: SchedDecodeOnly},
	}
	var rows []decodeGoldenRow
	for _, g := range configs {
		var pinned *decodeGoldenRow
		for _, sched := range scheds {
			for _, mode := range []StepCacheMode{StepCacheOn, StepCacheOff} {
				scn := schedTestScenario(t, sched)
				cfg := sim.DefaultConfig()
				cfg.L2SizeBytes /= 32
				cfg.Throttle = g.throttle
				cfg.Arbiter = g.arb
				m, err := RunWith(cfg, scn, RunOptions{StepCache: mode, Memo: NewStepMemo()})
				if err != nil {
					t.Fatal(err)
				}
				id := g.throttle + "/" + sched.Policy.String() + "/" + mode.String()
				row := decodeGoldenRow{
					Throttle: g.throttle, Arbiter: g.arb.String(),
					Makespan: m.Makespan, Cycles: m.Cycles,
					Tokens: m.Tokens, Steps: m.Steps,
					LatP50: m.TokenLatency.P50, LatP99: m.TokenLatency.P99,
					QueueP99: m.QueueDelay.P99,
					L2Hits:   m.Counters.L2Hits, DRAMReads: m.Counters.DRAMReads,
				}
				// Every scheduler spelling and step-cache mode must agree
				// bit for bit before the shared row is judged golden.
				if pinned == nil {
					pinned = &row
				} else if *pinned != row {
					t.Errorf("%s: diverges from the first variant:\n  first: %+v\n  got:   %+v", id, *pinned, row)
				}
				if m.PrefillTokens != 0 || m.PrefillSteps != 0 {
					t.Errorf("%s: decode-only run reports prefill work %d/%d", id, m.PrefillTokens, m.PrefillSteps)
				}
				// TTFT is fully determined: every request emits a first
				// token, so the sample must be complete.
				if len(m.PerRequest) != 8 {
					t.Fatalf("%s: %d per-request entries", id, len(m.PerRequest))
				}
				for _, rs := range m.PerRequest {
					if rs.FirstTokenCycle <= rs.AdmitCycle || rs.TTFT != rs.FirstTokenCycle-rs.ArrivalCycle {
						t.Errorf("%s: request %d TTFT bookkeeping wrong: first=%d admit=%d ttft=%d",
							id, rs.ID, rs.FirstTokenCycle, rs.AdmitCycle, rs.TTFT)
					}
				}
			}
		}
		rows = append(rows, *pinned)
	}
	goldentest.Compare(t, "testdata/decode_only.golden.json", rows)
}

// saturatedScenario is the committed 8-stream saturation scenario of
// the chunked-vs-prefill-first acceptance criterion: every request
// arrives at cycle 0 against a 4-slot batch, so admission, prefill and
// decode all contend.
func saturatedScenario(t *testing.T, sched SchedulerConfig) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name: "sat8", Seed: 11, NumRequests: 8,
		MinPromptLen: 16, MaxPromptLen: 48,
		MinDecode: 2, MaxDecode: 4,
		MeanInterArrival: 0, MaxBatch: 4,
		Sched: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestChunkedBeatsPrefillFirstUnderSaturation is the acceptance
// scenario: on a saturated 8-stream population the chunked scheduler
// reports finite TTFT percentiles that strictly improve on
// prefill-first at p50, p95 and p99. Chunked co-schedules prompt
// chunks with running decode tokens in the same simulated step, so
// decode streams keep retiring (freeing slots and KV) while prompts
// prefill; prefill-first serialises monolithic prompt passes before
// any decode progress.
func TestChunkedBeatsPrefillFirstUnderSaturation(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	cfg.Throttle = "dynmg"
	cfg.Arbiter = arbiter.BMA

	pf, err := Run(cfg, saturatedScenario(t, SchedulerConfig{Policy: SchedPrefillFirst}))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Run(cfg, saturatedScenario(t, SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name   string
		pf, ch float64
	}{
		{"p50", pf.TTFT.P50, ch.TTFT.P50},
		{"p95", pf.TTFT.P95, ch.TTFT.P95},
		{"p99", pf.TTFT.P99, ch.TTFT.P99},
	} {
		if p.ch <= 0 || math.IsInf(p.ch, 0) || math.IsNaN(p.ch) {
			t.Errorf("chunked TTFT %s not finite-positive: %v", p.name, p.ch)
		}
		if p.pf <= 0 || math.IsInf(p.pf, 0) || math.IsNaN(p.pf) {
			t.Errorf("prefill-first TTFT %s not finite-positive: %v", p.name, p.pf)
		}
		if !(p.ch < p.pf) {
			t.Errorf("chunked TTFT %s = %v not strictly below prefill-first %v", p.name, p.ch, p.pf)
		}
	}
	// Both schedulers do the same prompt work in total.
	if pf.PrefillTokens != ch.PrefillTokens {
		t.Errorf("prefill token totals differ: prefill-first %d, chunked %d", pf.PrefillTokens, ch.PrefillTokens)
	}
	// Chunked splits it across more passes.
	if ch.PrefillSteps <= pf.PrefillSteps {
		t.Errorf("chunked prefill steps %d not above prefill-first %d", ch.PrefillSteps, pf.PrefillSteps)
	}
}

// TestSchedValidation covers the scheduler-configuration edge cases:
// zero-chunk rejection, sub-floor chunks, chunk set on non-chunked
// policies, negative capacity, and requests that can never fit the
// capacity.
func TestSchedValidation(t *testing.T) {
	bad := []SchedulerConfig{
		{Policy: SchedChunked},                  // zero chunk
		{Policy: SchedChunked, ChunkTokens: 8},  // below the mapping floor
		{Policy: SchedChunked, ChunkTokens: -1}, // negative
		{Policy: SchedDecodeOnly, ChunkTokens: 32},
		{Policy: SchedPrefillFirst, ChunkTokens: 32},
		{Policy: SchedDecodeOnly, KVCapTokens: -1},
		{Policy: SchedPolicy(99)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", s)
		}
	}
	good := []SchedulerConfig{
		{},
		{Policy: SchedChunked, ChunkTokens: 16},
		{Policy: SchedPrefillFirst, KVCapTokens: 64},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", s, err)
		}
	}
	// A request whose lifetime KV footprint exceeds the capacity can
	// never be admitted — scenario validation must reject it up front
	// rather than letting Drain deadlock.
	scn := Scenario{
		Requests: []Request{{ID: 0, Model: workload.Llama3_70B, PromptLen: 64, DecodeTokens: 8}},
		MaxBatch: 2,
		Sched:    SchedulerConfig{KVCapTokens: 71},
	}
	if err := scn.Validate(); err == nil {
		t.Error("scenario with an inadmissible request accepted")
	}
	scn.Sched.KVCapTokens = 72 // exactly the lifetime footprint
	if err := scn.Validate(); err != nil {
		t.Errorf("exact-fit request rejected: %v", err)
	}
}

// TestPromptAtMappingFloor runs prompts of exactly 16 tokens — the KV
// mapping floor — through both prefill schedulers: the first (and
// only) chunk's pass attends over exactly 16 keys, the smallest legal
// prefill operator.
func TestPromptAtMappingFloor(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	for _, sched := range []SchedulerConfig{
		{Policy: SchedPrefillFirst},
		{Policy: SchedChunked, ChunkTokens: 16},
	} {
		scn, err := NewScenario(ScenarioConfig{
			Name: "floor", Seed: 5, NumRequests: 3,
			MinPromptLen: 16, MaxPromptLen: 16,
			MinDecode: 2, MaxDecode: 2,
			MeanInterArrival: 0, MaxBatch: 2,
			Sched: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(cfg, scn)
		if err != nil {
			t.Fatalf("%v: %v", sched.Policy, err)
		}
		if m.PrefillTokens != 3*16 {
			t.Errorf("%v: prefilled %d tokens, want 48", sched.Policy, m.PrefillTokens)
		}
		if m.Tokens != 6 {
			t.Errorf("%v: decoded %d tokens, want 6", sched.Policy, m.Tokens)
		}
		for _, rs := range m.PerRequest {
			if rs.FinalKVLen != 16+2 {
				t.Errorf("%v: request %d final KV %d, want 18", sched.Policy, rs.ID, rs.FinalKVLen)
			}
			if rs.TTFT <= 0 {
				t.Errorf("%v: request %d TTFT %d", sched.Policy, rs.ID, rs.TTFT)
			}
		}
	}
}

// TestKVCapacityExactlyExhausted pins the boundary behaviour of the
// capacity gate: a capacity equal to the combined lifetime footprint
// of two requests admits both at cycle 0; one token less forces the
// second to queue until the first retires and releases its
// reservation — admission exactly at the retirement boundary.
func TestKVCapacityExactlyExhausted(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	reqs := func() []Request {
		return []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 2},
			{ID: 1, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 2},
		}
	}
	run := func(kvcap int64) *Metrics {
		scn := Scenario{
			Name:     "kvcap",
			Requests: reqs(),
			MaxBatch: 2,
			Sched:    SchedulerConfig{KVCapTokens: kvcap},
		}
		m, err := Run(cfg, scn)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// 2 × (16 + 2) = 36: exactly exhausted, both admitted immediately.
	exact := run(36)
	for _, rs := range exact.PerRequest {
		if rs.AdmitCycle != 0 || rs.QueueDelay != 0 {
			t.Errorf("kvcap=36: request %d admit=%d queue=%d, want both 0", rs.ID, rs.AdmitCycle, rs.QueueDelay)
		}
	}
	if exact.MeanBatchOccupancy != 2 {
		t.Errorf("kvcap=36: occupancy %v, want 2 (both streams in every step)", exact.MeanBatchOccupancy)
	}
	// One token short: request 1 waits for request 0's reservation.
	short := run(35)
	r0, r1 := short.PerRequest[0], short.PerRequest[1]
	if r0.AdmitCycle != 0 {
		t.Fatalf("kvcap=35: request 0 admit=%d, want 0", r0.AdmitCycle)
	}
	if r1.AdmitCycle != r0.FinishCycle {
		t.Errorf("kvcap=35: request 1 admitted at %d, want request 0's finish %d", r1.AdmitCycle, r0.FinishCycle)
	}
	if r1.QueueDelay != r0.FinishCycle {
		t.Errorf("kvcap=35: request 1 queue delay %d, want %d", r1.QueueDelay, r0.FinishCycle)
	}
	if short.MeanBatchOccupancy != 1 {
		t.Errorf("kvcap=35: occupancy %v, want 1 (strictly serial)", short.MeanBatchOccupancy)
	}
}

// TestChunkAccounting pins the chunk arithmetic: a 40-token prompt
// under 16-token chunks takes passes of 16, 16 and 8 tokens, then
// decodes.
func TestChunkAccounting(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	scn := Scenario{
		Name: "chunks",
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 40, DecodeTokens: 3},
		},
		MaxBatch: 1,
		Sched:    SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16},
	}
	m, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if m.PrefillTokens != 40 || m.PrefillSteps != 3 {
		t.Errorf("prefill %d tokens in %d steps, want 40 in 3", m.PrefillTokens, m.PrefillSteps)
	}
	if m.Steps != 3+3 {
		t.Errorf("steps %d, want 6 (3 chunks + 3 decode tokens)", m.Steps)
	}
	if rs := m.PerRequest[0]; rs.FinalKVLen != 43 {
		t.Errorf("final KV %d, want 43", rs.FinalKVLen)
	}
	// Same prompt under prefill-first: one monolithic pass.
	scn.Sched = SchedulerConfig{Policy: SchedPrefillFirst}
	pm, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if pm.PrefillTokens != 40 || pm.PrefillSteps != 1 {
		t.Errorf("prefill-first: %d tokens in %d steps, want 40 in 1", pm.PrefillTokens, pm.PrefillSteps)
	}
}

// TestStepSignaturePrefillComponent checks the memo-key phase
// component: a prefill pass of the same (slot, model, kv) state keys
// differently from the decode pass, and differently per chunk length.
func TestStepSignaturePrefillComponent(t *testing.T) {
	dec := []StreamState{{Slot: 0, Model: workload.Llama3_70B, KVLen: 32, Base: 0}}
	pre := []StreamState{{Slot: 0, Model: workload.Llama3_70B, KVLen: 32, Base: 0, ChunkLen: 16}}
	pre2 := []StreamState{{Slot: 0, Model: workload.Llama3_70B, KVLen: 32, Base: 0, ChunkLen: 32}}

	sd, sp, sp2 := StepSignature("c", dec), StepSignature("c", pre), StepSignature("c", pre2)
	if sd == sp || sp == sp2 || sd == sp2 {
		t.Fatalf("signatures not distinct: %q %q %q", sd, sp, sp2)
	}
	// The phase is a field of its own: a decode key and a prefill key
	// of one state differ, and they are equally long.
	if sd == sp || len(sd) != len(sp) {
		t.Errorf("decode key %q and prefill key %q: want distinct keys of one length", sd, sp)
	}
	// Mixed steps canonicalise by slot regardless of presentation
	// order, phases preserved.
	mixA := []StreamState{
		{Slot: 1, Model: workload.Llama3_70B, KVLen: 48, Base: 4 << 20, ChunkLen: 16},
		{Slot: 0, Model: workload.Llama3_70B, KVLen: 32, Base: 0},
	}
	mixB := []StreamState{mixA[1], mixA[0]}
	if a, b := StepSignature("c", mixA), StepSignature("c", mixB); a != b {
		t.Errorf("mixed-phase canonicalisation broke: %q vs %q", a, b)
	}
}

// TestPrefillStepCacheEquivalence runs the same chunked scenario on
// the fast path and the naive reference path: prefill passes must be
// bit-identical through the memo + arena + reset pipeline exactly like
// decode steps.
func TestPrefillStepCacheEquivalence(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	for _, sched := range []SchedulerConfig{
		{Policy: SchedChunked, ChunkTokens: 16},
		{Policy: SchedPrefillFirst},
	} {
		scn := saturatedScenario(t, sched)
		var got []*Metrics
		for _, mode := range []StepCacheMode{StepCacheOn, StepCacheNoMemo, StepCacheOff} {
			m, err := RunWith(cfg, scn, RunOptions{StepCache: mode, Memo: NewStepMemo()})
			if err != nil {
				t.Fatalf("%v/%v: %v", sched.Policy, mode, err)
			}
			m.StripStepCache()
			got = append(got, m)
		}
		for i := 1; i < len(got); i++ {
			if got[0].Makespan != got[i].Makespan || got[0].Cycles != got[i].Cycles ||
				got[0].Counters != got[i].Counters || got[0].TTFT != got[i].TTFT {
				t.Errorf("%v: mode %d diverged from mode 0", sched.Policy, i)
			}
		}
		// Run the fast path twice on one shared memo: the second run
		// replays every step and must stay bit-identical.
		memo := NewStepMemo()
		a, err := RunWith(cfg, scn, RunOptions{Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunWith(cfg, scn, RunOptions{Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		if b.StepCache.MemoHits == 0 || b.StepCache.MemoMisses != 0 {
			t.Errorf("%v: warm rerun memo %d/%d, want all hits", sched.Policy,
				b.StepCache.MemoHits, b.StepCache.MemoHits+b.StepCache.MemoMisses)
		}
		a.StripStepCache()
		b.StripStepCache()
		if a.Makespan != b.Makespan || a.Counters != b.Counters || a.TTFT != b.TTFT {
			t.Errorf("%v: warm rerun diverged", sched.Policy)
		}
	}
}
