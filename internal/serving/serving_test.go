package serving

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testScenario returns a small mixed-sequence-length population: eight
// requests, batch capacity four, Poisson arrivals — the acceptance
// shape of the serving engine at test size.
func testScenario(t *testing.T) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name:             "test/8req",
		Seed:             7,
		NumRequests:      8,
		Models:           []workload.ModelConfig{workload.Llama3_70B},
		MinPromptLen:     16,
		MaxPromptLen:     48,
		MinDecode:        2,
		MaxDecode:        3,
		MeanInterArrival: 5000,
		MaxBatch:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes = 1 << 20 // pressure the cache at test-sized prompts
	return cfg
}

func TestScenarioGeneratorDeterminism(t *testing.T) {
	cfg := ScenarioConfig{
		Seed: 42, NumRequests: 32,
		MinPromptLen: 16, MaxPromptLen: 4096,
		MinDecode: 1, MaxDecode: 64,
		MeanInterArrival: 10000, MaxBatch: 8,
	}
	a, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different scenarios")
	}
	cfg.Seed = 43
	c, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical request populations")
	}
	// Arrival order invariant.
	for i := 1; i < len(a.Requests); i++ {
		if a.Requests[i].ArrivalCycle < a.Requests[i-1].ArrivalCycle {
			t.Fatalf("requests not in arrival order at %d", i)
		}
	}
}

// TestServeDeterminism is the acceptance test of ISSUE 2: a fixed-seed
// ≥8-stream mixed-sequence-length continuous-batching scenario across
// ≥2 policies yields bit-identical serving metrics on repeated runs,
// and the metrics are internally consistent.
func TestServeDeterminism(t *testing.T) {
	scn := testScenario(t)
	policies := []struct {
		label    string
		throttle string
		arb      arbiter.Kind
	}{
		{"unopt", "none", arbiter.FCFS},
		{"dynmg+BMA", "dynmg", arbiter.BMA},
	}
	for _, pol := range policies {
		cfg := testConfig()
		cfg.Throttle = pol.throttle
		cfg.Arbiter = pol.arb
		first, err := Run(cfg, scn)
		if err != nil {
			t.Fatalf("%s: %v", pol.label, err)
		}
		second, err := Run(cfg, scn)
		if err != nil {
			t.Fatalf("%s: %v", pol.label, err)
		}
		// StepCache counters are diagnostics outside the bit-identity
		// contract (the second run hits memo entries the first filled).
		first.StripStepCache()
		second.StripStepCache()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: repeated runs disagree:\n%v\n%v", pol.label, first, second)
		}

		if first.Tokens != scn.TotalTokens() {
			t.Fatalf("%s: generated %d tokens, scenario has %d", pol.label, first.Tokens, scn.TotalTokens())
		}
		if first.TokensPerKCycle <= 0 {
			t.Fatalf("%s: non-positive throughput %v", pol.label, first.TokensPerKCycle)
		}
		tl := first.TokenLatency
		if !(tl.P50 > 0 && tl.P50 <= tl.P95 && tl.P95 <= tl.P99 && tl.P99 <= tl.Max) {
			t.Fatalf("%s: token latency percentiles unordered: %+v", pol.label, tl)
		}
		if first.Makespan < first.Cycles {
			t.Fatalf("%s: makespan %d < busy cycles %d", pol.label, first.Makespan, first.Cycles)
		}
		if first.Counters.Cycles != first.Cycles {
			t.Fatalf("%s: aggregated counter cycles %d != busy cycles %d",
				pol.label, first.Counters.Cycles, first.Cycles)
		}
		occ := first.MeanBatchOccupancy
		if occ <= 0 || occ > float64(scn.MaxBatch) {
			t.Fatalf("%s: batch occupancy %v outside (0, %d]", pol.label, occ, scn.MaxBatch)
		}
		for _, rs := range first.PerRequest {
			if rs.QueueDelay < 0 || rs.AdmitCycle < rs.ArrivalCycle || rs.FinishCycle <= rs.AdmitCycle {
				t.Fatalf("%s: inconsistent request stats %+v", pol.label, rs)
			}
			if rs.Tokens <= 0 {
				t.Fatalf("%s: request %d retired with %d tokens", pol.label, rs.ID, rs.Tokens)
			}
		}
	}
}

// TestQueueDelayUnderSaturation: with every request arriving at cycle
// 0 and a batch smaller than the population, later requests must see
// non-zero queueing delay while the first batch sees none.
func TestQueueDelayUnderSaturation(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		Seed: 3, NumRequests: 6,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 2,
		MeanInterArrival: 0, // closed batch: all at cycle 0
		MaxBatch:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(testConfig(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueDelay.Max <= 0 {
		t.Fatal("saturated scenario reported zero max queue delay")
	}
	zero := 0
	for _, rs := range m.PerRequest {
		if rs.QueueDelay == 0 {
			zero++
		}
	}
	if zero != scn.MaxBatch {
		t.Fatalf("%d requests admitted without delay, want the first batch of %d", zero, scn.MaxBatch)
	}
}

// TestTwoStreamInterleave is the trace-composition smoke test: a
// two-stream step strictly alternates the streams' thread blocks, and
// every memory address of a block falls inside its own stream's
// address region.
func TestTwoStreamInterleave(t *testing.T) {
	scn := Scenario{
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 32, DecodeTokens: 1},
			{ID: 1, Model: workload.Llama3_70B, PromptLen: 32, DecodeTokens: 1},
		},
		MaxBatch: 2,
	}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	if stride == 0 || stride%(4<<20) != 0 {
		t.Fatalf("stride %d not a positive multiple of the stream alignment", stride)
	}
	streams := []StreamState{
		{Slot: 0, Base: 0, Model: workload.Llama3_70B, KVLen: 32},
		{Slot: 1, Base: stride, Model: workload.Llama3_70B, KVLen: 32},
	}
	tr, groupSize, err := ComposeStep(streams, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if groupSize != workload.Llama3_70B.G {
		t.Fatalf("groupSize = %d, want %d", groupSize, workload.Llama3_70B.G)
	}
	if len(tr.Blocks) == 0 || len(tr.Blocks)%2 != 0 {
		t.Fatalf("expected an even, non-zero block count, got %d", len(tr.Blocks))
	}
	for i, tb := range tr.Blocks {
		if tb.ID != i {
			t.Fatalf("block %d has ID %d, want sequential IDs", i, tb.ID)
		}
		// Equal-length streams compose to a strict 0,1,0,1,… rotation.
		if want := i % 2; tb.Meta.Stream != want {
			t.Fatalf("block %d belongs to stream %d, want strict interleave (stream %d)", i, tb.Meta.Stream, want)
		}
		for _, in := range tb.Insts {
			if in.Kind == 2 { // KindCompute
				continue
			}
			region := int(in.Addr / stride)
			if region != tb.Meta.Stream {
				t.Fatalf("block %d (stream %d) touches address %#x in stream %d's region",
					i, tb.Meta.Stream, in.Addr, region)
			}
		}
	}
}

// TestFirstStepMatchesRun pins FirstStep to Run's actual first
// iteration: for a scenario whose whole life is one step (everything
// arrives at cycle 0, one token each, batch ≥ population), simulating
// the composed FirstStep trace directly must reproduce Run's
// makespan and counters exactly. Any drift between FirstStep's
// admission and Run's breaks this.
func TestFirstStepMatchesRun(t *testing.T) {
	scn := Scenario{
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 32, DecodeTokens: 1},
			{ID: 1, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1, ArrivalCycle: 0},
			{ID: 2, Model: workload.Llama3_405B, PromptLen: 48, DecodeTokens: 1},
		},
		MaxBatch: 3,
	}
	cfg := testConfig()

	m, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	states, err := FirstStep(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Fatalf("FirstStep admitted %d streams, want 3", len(states))
	}
	tr, groupSize, err := ComposeStep(states, scn.IncludeAV, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(cfg, tr, groupSize)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != m.Makespan || res.Cycles != m.Cycles {
		t.Fatalf("FirstStep trace simulates to %d cycles, Run reports makespan %d / busy %d",
			res.Cycles, m.Makespan, m.Cycles)
	}
	if res.Counters != m.Counters {
		t.Fatalf("FirstStep counters diverge from Run's:\n%+v\n%+v", res.Counters, m.Counters)
	}
}

// TestFirstStepKVCap: the first step admits only what fits the KV
// capacity, as the engine does. Three requests each reserve 20 KV
// tokens against a 40-token cap, so two of them run.
func TestFirstStepKVCap(t *testing.T) {
	scn := Scenario{MaxBatch: 4, Sched: SchedulerConfig{KVCapTokens: 40}}
	for i := 0; i < 3; i++ {
		scn.Requests = append(scn.Requests, Request{ID: i, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 4})
	}
	states, err := FirstStep(testConfig(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("FirstStep admitted %d streams under a 40-token KV cap, want 2", len(states))
	}
	m, err := Run(testConfig(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PerRequest[2].AdmitCycle; got == 0 {
		t.Fatal("the third request was admitted at cycle 0 by Run too; the case checks nothing")
	}
}

// TestReferenceEquivalence extends PR 1's engine-equivalence guarantee
// to the serving scenario: the retained per-cycle reference loop and
// the event-horizon fast-forward engine produce bit-identical serving
// metrics, under FCFS and under the MSHR-aware arbiters, whose
// fast-forward selection consults a classification filter the
// reference loop does without.
func TestReferenceEquivalence(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		Seed: 11, NumRequests: 3,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 2,
		MeanInterArrival: 8000, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []struct {
		label    string
		throttle string
		arb      arbiter.Kind
	}{
		{"fcfs", "none", arbiter.FCFS},
		{"dynmg+MA", "dynmg", arbiter.MA},
		{"dynmg+BMA", "dynmg", arbiter.BMA},
	} {
		fast := testConfig()
		fast.Throttle, fast.Arbiter = pol.throttle, pol.arb
		ref := fast
		ref.Reference = true

		mFast, err := Run(fast, scn)
		if err != nil {
			t.Fatalf("%s: %v", pol.label, err)
		}
		mRef, err := Run(ref, scn)
		if err != nil {
			t.Fatalf("%s reference: %v", pol.label, err)
		}
		mFast.StripStepCache()
		mRef.StripStepCache()
		if !reflect.DeepEqual(mFast, mRef) {
			t.Fatalf("%s: fast-forward and reference serving metrics differ:\n%v\n%v", pol.label, mFast, mRef)
		}
	}
}

// TestMixedModels: a batch mixing 70B and 405B streams runs and uses
// the larger group size for dispatch.
func TestMixedModels(t *testing.T) {
	scn := Scenario{
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1},
			{ID: 1, Model: workload.Llama3_405B, PromptLen: 16, DecodeTokens: 1},
		},
		MaxBatch: 2,
	}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		t.Fatal(err)
	}
	streams := []StreamState{
		{Slot: 0, Base: 0, Model: workload.Llama3_70B, KVLen: 16},
		{Slot: 1, Base: stride, Model: workload.Llama3_405B, KVLen: 16},
	}
	_, groupSize, err := ComposeStep(streams, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if groupSize != workload.Llama3_405B.G {
		t.Fatalf("groupSize = %d, want the larger model's %d", groupSize, workload.Llama3_405B.G)
	}
	m, err := Run(testConfig(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tokens != 2 {
		t.Fatalf("tokens = %d, want 2", m.Tokens)
	}
}

// TestIncludeAV: enabling the AV operator adds its traffic to every
// step.
func TestIncludeAV(t *testing.T) {
	base := Scenario{
		Requests: []Request{{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1}},
		MaxBatch: 1,
	}
	withAV := base
	withAV.IncludeAV = true

	mBase, err := Run(testConfig(), base)
	if err != nil {
		t.Fatal(err)
	}
	mAV, err := Run(testConfig(), withAV)
	if err != nil {
		t.Fatal(err)
	}
	if mAV.Counters.L2Accesses <= mBase.Counters.L2Accesses {
		t.Fatalf("AV step did not add traffic: %d <= %d L2 accesses",
			mAV.Counters.L2Accesses, mBase.Counters.L2Accesses)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []ScenarioConfig{
		{NumRequests: 0, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1},
		{NumRequests: 1, MinPromptLen: 8, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 8, MinDecode: 1, MaxDecode: 1, MaxBatch: 1},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 0, MaxDecode: 1, MaxBatch: 1},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 0},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1, MeanInterArrival: math.NaN()},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1, MeanInterArrival: -1},
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1, MeanInterArrival: math.Inf(1)},
		// Finite, but the first arrival lands past the int64 cycle range.
		{NumRequests: 1, MinPromptLen: 16, MaxPromptLen: 16, MinDecode: 1, MaxDecode: 1, MaxBatch: 1, MeanInterArrival: 1e300},
	}
	for i, cfg := range bad {
		if _, err := NewScenario(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("empty scenario validated")
	}
	// Request IDs index the per-request result slice, so they must be
	// a permutation of [0, n).
	outOfRange := Scenario{
		Requests: []Request{{ID: 1, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1}},
		MaxBatch: 1,
	}
	if err := outOfRange.Validate(); err == nil {
		t.Error("out-of-range request ID validated")
	}
	dup := Scenario{
		Requests: []Request{
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1},
			{ID: 0, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 1},
		},
		MaxBatch: 1,
	}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate request IDs validated")
	}
}
