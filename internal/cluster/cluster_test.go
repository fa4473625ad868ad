package cluster

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testScenario is the acceptance-shape fleet workload: sixteen
// requests over four sessions, Poisson arrivals, per-node batch
// capacity two, at test-sized prompts.
func testScenario(t *testing.T) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "test/16req", Seed: 7, NumRequests: 16,
			Models:       []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 3,
			MeanInterArrival: 4000, MaxBatch: 2,
		},
		NumSessions: 4,
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

// TestClusterParallelDeterminism is the acceptance test of ISSUE 3: a
// 4-node/16-request fleet produces bit-identical cluster metrics
// across worker-pool widths 1 and GOMAXPROCS, for every router
// policy — and repeated runs at the same width agree too.
func TestClusterParallelDeterminism(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	wide := runtime.GOMAXPROCS(0)
	for _, pol := range Policies() {
		serial, err := Run(cfg, scn, 4, pol, Options{Parallel: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", pol, err)
		}
		parallel, err := Run(cfg, scn, 4, pol, Options{Parallel: wide})
		if err != nil {
			t.Fatalf("%s parallel: %v", pol, err)
		}
		// StepCache counters are diagnostics outside the bit-identity
		// contract: concurrently advancing nodes race to publish shared
		// step signatures, so the hit/miss split depends on timing.
		serial.StripStepCache()
		parallel.StripStepCache()
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: metrics differ between -parallel 1 and %d:\n%v\n%v", pol, wide, serial, parallel)
		}
		again, err := Run(cfg, scn, 4, pol, Options{Parallel: wide})
		if err != nil {
			t.Fatalf("%s again: %v", pol, err)
		}
		again.StripStepCache()
		if !reflect.DeepEqual(parallel, again) {
			t.Fatalf("%s: repeated parallel runs disagree", pol)
		}

		// Fleet bookkeeping invariants.
		if serial.Tokens != scn.TotalTokens() {
			t.Fatalf("%s: fleet generated %d tokens, scenario has %d", pol, serial.Tokens, scn.TotalTokens())
		}
		var nodeTokens int64
		for _, nm := range serial.PerNode {
			nodeTokens += nm.Tokens
		}
		if nodeTokens != serial.Tokens {
			t.Fatalf("%s: per-node tokens sum %d != fleet %d", pol, nodeTokens, serial.Tokens)
		}
		for id, rs := range serial.PerRequest {
			if rs.ID != id {
				t.Fatalf("%s: PerRequest[%d] holds ID %d", pol, id, rs.ID)
			}
			if rs.Node < 0 || rs.Node >= 4 {
				t.Fatalf("%s: request %d routed to node %d", pol, id, rs.Node)
			}
			if rs.E2ELatency <= 0 || rs.FinishCycle <= rs.ArrivalCycle {
				t.Fatalf("%s: inconsistent request stats %+v", pol, rs)
			}
		}
		if serial.LoadImbalance < 1 || serial.LoadImbalance > 4 {
			t.Fatalf("%s: load imbalance %v outside [1, nodes]", pol, serial.LoadImbalance)
		}
		e2e, q := serial.E2ELatency, serial.QueueDelay
		if !(e2e.P50 > 0 && e2e.P50 <= e2e.P95 && e2e.P95 <= e2e.P99 && e2e.P99 <= e2e.Max) {
			t.Fatalf("%s: e2e percentiles unordered: %+v", pol, e2e)
		}
		if q.Max > e2e.Max {
			t.Fatalf("%s: queue delay max %v exceeds e2e max %v", pol, q.Max, e2e.Max)
		}
	}
}

// TestSingleNodeDegenerateEquivalence is the other acceptance test: a
// 1-node cluster under any router policy reproduces the single-node
// internal/serving result exactly — the node's serving metrics are
// bit-identical to serving.Run on the session-stripped scenario, and
// the fleet rollup agrees with them.
func TestSingleNodeDegenerateEquivalence(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	want, err := serving.Run(cfg, scn.ServingScenario())
	if err != nil {
		t.Fatal(err)
	}
	want.StripStepCache()
	for _, pol := range Policies() {
		m, err := Run(cfg, scn, 1, pol, Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		m.StripStepCache()
		if len(m.PerNode) != 1 {
			t.Fatalf("%s: %d node metrics, want 1", pol, len(m.PerNode))
		}
		if !reflect.DeepEqual(m.PerNode[0], want) {
			t.Fatalf("%s: 1-node cluster diverges from serving.Run:\n%v\n%v", pol, m.PerNode[0], want)
		}
		if m.Tokens != want.Tokens || m.Makespan != want.Makespan {
			t.Fatalf("%s: fleet rollup (tokens %d, makespan %d) != node (%d, %d)",
				pol, m.Tokens, m.Makespan, want.Tokens, want.Makespan)
		}
		if m.FleetTokensPerKCycle != want.TokensPerKCycle {
			t.Fatalf("%s: fleet throughput %v != node %v", pol, m.FleetTokensPerKCycle, want.TokensPerKCycle)
		}
		if m.MeanBatchOccupancy != want.MeanBatchOccupancy {
			t.Fatalf("%s: fleet occupancy %v != node %v", pol, m.MeanBatchOccupancy, want.MeanBatchOccupancy)
		}
		if m.LoadImbalance != 1 {
			t.Fatalf("%s: single-node imbalance %v, want exactly 1", pol, m.LoadImbalance)
		}
	}
}

// TestRouterPolicies unit-tests each policy's dispatch function
// directly.
func TestRouterPolicies(t *testing.T) {
	req := func(id, session int) Request {
		return Request{ID: id, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 2, Session: session}
	}
	t.Run("round-robin", func(t *testing.T) {
		rt := newRouter(Policy{Kind: RoundRobin}, 3)
		load := []int64{100, 0, 0} // ignored by design
		zeros := make([]int64, 3)
		for k := 0; k < 7; k++ {
			if got := rt.pick(req(k, 0), load, zeros, nil, nil); got != k%3 {
				t.Fatalf("dispatch %d went to node %d, want %d", k, got, k%3)
			}
		}
	})
	t.Run("least-outstanding", func(t *testing.T) {
		rt := newRouter(Policy{Kind: LeastOutstanding}, 4)
		if got := rt.pick(req(0, 0), []int64{5, 3, 9, 3}, make([]int64, 4), nil, nil); got != 1 {
			t.Fatalf("picked node %d, want the first minimum 1", got)
		}
	})
	t.Run("p2c", func(t *testing.T) {
		a := newRouter(Policy{Kind: PowerOfTwo, Seed: 9}, 4)
		b := newRouter(Policy{Kind: PowerOfTwo, Seed: 9}, 4)
		load := []int64{4, 1, 3, 2}
		zeros := make([]int64, 4)
		for k := 0; k < 32; k++ {
			x, y := a.pick(req(k, 0), load, zeros, nil, nil), b.pick(req(k, 0), load, zeros, nil, nil)
			if x != y {
				t.Fatalf("same seed diverged at dispatch %d: %d vs %d", k, x, y)
			}
		}
	})
	t.Run("ttft-pressure", func(t *testing.T) {
		rt := newRouter(Policy{Kind: LeastTTFTPressure}, 4)
		// Node 1 has the lowest decode load but a deep prefill backlog;
		// the pressure policy must look past it to node 2, while a pure
		// least-outstanding pick would take node 1.
		load := []int64{5, 1, 3, 6}
		backlog := []int64{0, 90, 0, 0}
		if got := rt.pick(req(0, 0), load, backlog, nil, nil); got != 2 {
			t.Fatalf("picked node %d, want the least-pressure node 2", got)
		}
		// Zero backlog everywhere (decode-only fleet): degenerates to
		// least-outstanding, ties to the lowest index.
		if got := rt.pick(req(1, 0), []int64{4, 2, 2, 9}, make([]int64, 4), nil, nil); got != 1 {
			t.Fatalf("picked node %d, want least-outstanding tie-break 1", got)
		}
	})
	t.Run("affinity", func(t *testing.T) {
		rt := newRouter(Policy{Kind: SessionAffinity}, 4)
		load := []int64{0, 0, 0, 0}
		zeros := make([]int64, 4)
		homes := map[int]int{}
		for k := 0; k < 40; k++ {
			session := k % 5
			got := rt.pick(req(k, session), load, zeros, nil, nil)
			if home, seen := homes[session]; seen && got != home {
				t.Fatalf("session %d moved from node %d to %d", session, home, got)
			}
			homes[session] = got
		}
	})
}

// TestAffinityImbalance: a single-session population under affinity
// lands entirely on one node of a 4-node fleet — the imbalance
// coefficient reaches its maximum (the node count) and every request
// reports the same node.
func TestAffinityImbalance(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "one-session", Seed: 3, NumRequests: 6,
			MinPromptLen: 16, MaxPromptLen: 32,
			MinDecode: 2, MaxDecode: 2,
			MeanInterArrival: 3000, MaxBatch: 2,
		},
		NumSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(testConfig(), scn, 4, Policy{Kind: SessionAffinity}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	home := m.PerRequest[0].Node
	for _, rs := range m.PerRequest {
		if rs.Node != home {
			t.Fatalf("request %d ran on node %d, want the session home %d", rs.ID, rs.Node, home)
		}
	}
	if m.LoadImbalance != 4 {
		t.Fatalf("one-session imbalance %v, want the full 4 (all load on one node)", m.LoadImbalance)
	}
	busy, idle := 0, 0
	for _, nm := range m.PerNode {
		if nm.Requests > 0 {
			busy++
		} else {
			idle++
			if nm.Tokens != 0 || nm.Steps != 0 {
				t.Fatalf("idle node did work: %+v", nm)
			}
		}
	}
	if busy != 1 || idle != 3 {
		t.Fatalf("%d busy / %d idle nodes, want 1/3", busy, idle)
	}
}

// TestLeastOutstandingSpreads: under the greedy policy a saturated
// closed batch spreads across the fleet — no node is left idle and
// the imbalance stays well below the affinity extreme.
func TestLeastOutstandingSpreads(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "closed", Seed: 5, NumRequests: 8,
			MinPromptLen: 16, MaxPromptLen: 32,
			MinDecode: 2, MaxDecode: 2,
			MeanInterArrival: 0, MaxBatch: 2,
		},
		NumSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(testConfig(), scn, 4, Policy{Kind: LeastOutstanding}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, nm := range m.PerNode {
		if nm.Requests != 2 {
			t.Fatalf("node %d served %d requests, want an even 2", i, nm.Requests)
		}
	}
	// The load integral samples at every dispatch, so the first-filled
	// node carries slightly more than the mean even in a perfectly even
	// spread — but nowhere near the affinity extreme of 4.
	if m.LoadImbalance < 1 || m.LoadImbalance >= 2 {
		t.Fatalf("even closed-batch spread has imbalance %v, want [1, 2)", m.LoadImbalance)
	}
}

// TestScenarioGeneration: session assignment is deterministic, within
// range, and the fleet population is the serving generator's draw for
// the same seed and session count.
func TestScenarioGeneration(t *testing.T) {
	cfg := ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Seed: 42, NumRequests: 64,
			MinPromptLen: 16, MaxPromptLen: 64,
			MinDecode: 1, MaxDecode: 4,
			MeanInterArrival: 2000, MaxBatch: 4,
		},
		NumSessions: 8,
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
		t.Fatal("same config produced different cluster scenarios")
	}
	sessions := map[int]bool{}
	for _, r := range a.Requests {
		if r.Session < 0 || r.Session >= 8 {
			t.Fatalf("request %d assigned session %d outside [0, 8)", r.ID, r.Session)
		}
		sessions[r.Session] = true
	}
	if len(sessions) < 2 {
		t.Fatalf("64 requests over 8 sessions used only %d sessions", len(sessions))
	}
	// The fleet population is exactly the serving generator's draw with
	// the cluster session count forwarded.
	inner := cfg.ScenarioConfig
	inner.NumSessions = cfg.NumSessions
	base, err := serving.NewScenario(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ServingScenario(), base) {
		t.Fatal("fleet population diverges from the serving generator")
	}
	if _, err := NewScenario(ScenarioConfig{ScenarioConfig: inner, NumSessions: 3}); err == nil {
		t.Error("conflicting cluster/serving NumSessions accepted")
	}
}

// TestClusterValidation: bad inputs are rejected with errors, not
// panics or hangs.
func TestClusterValidation(t *testing.T) {
	scn := testScenario(t)
	if _, err := Run(testConfig(), scn, 0, Policy{}, Options{}); err == nil {
		t.Error("zero node count accepted")
	}
	if _, err := Run(testConfig(), scn, -3, Policy{}, Options{}); err == nil {
		t.Error("negative node count accepted")
	}
	if _, err := Run(testConfig(), Scenario{}, 2, Policy{}, Options{}); err == nil {
		t.Error("empty scenario accepted")
	}
	// Lent scratch must be as wide as the run: Parallel 0 resolves to
	// the node count.
	for _, par := range []int{0, 2} {
		if _, err := Run(testConfig(), scn, 2, Policy{}, Options{Parallel: par, Scratch: NewScratch(1)}); err == nil {
			t.Errorf("width-1 Scratch lent to a run at Parallel %d accepted", par)
		}
	}
	if _, err := NewScenario(ScenarioConfig{NumSessions: -1}); err == nil {
		t.Error("negative session count accepted")
	}
	bad := scn
	bad.Requests = append([]Request(nil), scn.Requests...)
	bad.Requests[0].Session = -2
	if err := bad.Validate(); err == nil {
		t.Error("negative request session validated")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus router policy parsed")
	}
	for _, p := range Policies() {
		rt, err := ParsePolicy(p.Kind.String())
		if err != nil {
			t.Errorf("canonical name %q did not round-trip: %v", p.Kind, err)
		}
		if rt.Kind != p.Kind {
			t.Errorf("%q parsed to %v", p.Kind, rt.Kind)
		}
	}
	if !strings.Contains(Policy{Kind: PowerOfTwo, Seed: 7}.String(), "seed7") {
		t.Error("seeded p2c policy label omits the seed")
	}
}
