package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/serving"
	"repro/internal/workload"
)

// TestParseFaults covers the -faults flag grammar: every clause kind,
// canonical round-tripping, and up-front rejection of malformed specs
// (including NaN/Inf/negative generator parameters).
func TestParseFaults(t *testing.T) {
	gen := &FaultGen{Seed: 9, MTBF: 250000, MTTR: 40000.5, Count: 3}
	cases := []struct {
		spec string
		want FaultConfig
	}{
		{"", FaultConfig{}},
		{"off", FaultConfig{}},
		{"crash:0:50000", FaultConfig{Crashes: []Crash{{Node: 0, At: 50000}}}},
		{"crash:1:50000:90000", FaultConfig{Crashes: []Crash{{Node: 1, At: 50000, Rejoin: 90000}}}},
		{"slow:2:10000:60000:3", FaultConfig{Stragglers: []Straggler{{Node: 2, From: 10000, To: 60000, Factor: 3}}}},
		{"gen:9:250000:40000.5:3", FaultConfig{Gen: gen}},
		{
			"crash:0:50000:90000,slow:1:0:20000:2,detect:5000,drop,blind",
			FaultConfig{
				Crashes:       []Crash{{Node: 0, At: 50000, Rejoin: 90000}},
				Stragglers:    []Straggler{{Node: 1, From: 0, To: 20000, Factor: 2}},
				DetectLatency: 5000, Drop: true, Blind: true,
			},
		},
		// The explicit defaults are accepted and normalise away.
		{"crash:0:100,redispatch,aware", FaultConfig{Crashes: []Crash{{Node: 0, At: 100}}}},
	}
	for _, c := range cases {
		got, err := ParseFaults(c.spec)
		if err != nil {
			t.Errorf("spec %q: %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("spec %q parsed to %+v, want %+v", c.spec, got, c.want)
		}
		// The canonical rendering round-trips.
		rt, err := ParseFaults(got.String())
		if err != nil || !reflect.DeepEqual(rt, got) {
			t.Errorf("spec %q rendering %q did not round-trip: %+v (%v)", c.spec, got, rt, err)
		}
	}
	for _, spec := range []string{
		"bogus", "crash", "crash:0", "crash:x:5", "crash:0:-5", "crash:0:100:100",
		"crash:0:100:50", "slow:0:0:100", "slow:0:100:50:2", "slow:0:0:100:1",
		"slow:0:0:100:-3", "gen:1:100:100", "gen:x:100:100:2", "gen:1:NaN:100:2",
		"gen:1:100:Inf:2", "gen:1:-100:100:2", "gen:1:100:100:0", "gen:1:1e400:100:2",
		"gen:1:100:100:2,gen:2:100:100:2", "detect:-1", "detect:x", "detect:5000",
		"drop", "blind", // detector/recovery params without a schedule
	} {
		if _, err := ParseFaults(spec); err == nil {
			t.Errorf("spec %q parsed, want error", spec)
		}
	}
}

// TestFaultValidationAndPlan: configuration rules, fleet-size checks,
// per-node crash overlap rejection, and the generator's determinism.
func TestFaultValidationAndPlan(t *testing.T) {
	bad := []FaultConfig{
		{Crashes: []Crash{{Node: -1, At: 100}}},
		{Crashes: []Crash{{Node: 0, At: -1}}},
		{Crashes: []Crash{{Node: 0, At: 100, Rejoin: 100}}},
		{Stragglers: []Straggler{{Node: 0, From: 0, To: 0, Factor: 2}}},
		{Stragglers: []Straggler{{Node: 0, From: 0, To: 100, Factor: 1}}},
		{Gen: &FaultGen{Seed: 1, MTBF: 0, MTTR: 100, Count: 1}},
		{Gen: &FaultGen{Seed: 1, MTBF: 100, MTTR: math.Inf(1), Count: 1}},
		{Gen: &FaultGen{Seed: 1, MTBF: math.NaN(), MTTR: 100, Count: 1}},
		{Gen: &FaultGen{Seed: 1, MTBF: 100, MTTR: 100, Count: 0}},
		{Crashes: []Crash{{Node: 0, At: 100}}, DetectLatency: -1},
		{DetectLatency: 5000}, // detector without a schedule
		{Drop: true},
		{Blind: true},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", f)
		}
	}
	if err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}

	// Node indices are checked against the concrete fleet.
	if _, err := (FaultConfig{Crashes: []Crash{{Node: 3, At: 100}}}).plan(2); err == nil {
		t.Error("crash on node 3 of a 2-node fleet accepted")
	}
	if _, err := (FaultConfig{Stragglers: []Straggler{{Node: 2, From: 0, To: 100, Factor: 2}}}).plan(2); err == nil {
		t.Error("straggler on node 2 of a 2-node fleet accepted")
	}
	// A node cannot crash while already down.
	overlap := FaultConfig{Crashes: []Crash{{Node: 0, At: 100, Rejoin: 500}, {Node: 0, At: 300, Rejoin: 800}}}
	if _, err := overlap.plan(2); err == nil {
		t.Error("overlapping crashes on one node accepted")
	}
	permanent := FaultConfig{Crashes: []Crash{{Node: 0, At: 100}, {Node: 0, At: 1 << 30}}}
	if _, err := permanent.plan(2); err == nil {
		t.Error("crash after a permanent failure accepted")
	}
	// Back-to-back is legal: rejoin and the next crash on the same cycle.
	backToBack := FaultConfig{Crashes: []Crash{{Node: 0, At: 100, Rejoin: 500}, {Node: 0, At: 500, Rejoin: 900}}}
	if _, err := backToBack.plan(2); err != nil {
		t.Errorf("rejoin-then-immediate-crash rejected: %v", err)
	}

	// The generator is a pure function of (seed, params, fleet size).
	g := FaultConfig{Gen: &FaultGen{Seed: 42, MTBF: 50000, MTTR: 20000, Count: 8}}
	p1, err := g.plan(4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.plan(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("generated fault plans differ between identical calls")
	}
	if len(p1) == 0 {
		t.Error("generator produced an empty plan")
	}
	other, err := FaultConfig{Gen: &FaultGen{Seed: 43, MTBF: 50000, MTTR: 20000, Count: 8}}.plan(4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, other) {
		t.Error("different seeds produced identical fault plans")
	}
}

// faultFleetScenario is the committed fault-tolerance workload: a
// 20-request chunked-prefill population over five sessions against a
// four-node fleet, dense enough that a mid-run crash always has
// victims in flight.
func faultFleetScenario(t *testing.T) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "faults/fleet", Seed: 11, NumRequests: 20,
			Models:       []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 10000, MaxBatch: 2,
			Sched: serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 200},
		},
		NumSessions: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// faultCrash is the committed mid-run crash of the recovery tests:
// node 1 dies at cycle 80000 with several requests in flight and
// rejoins cold 80000 cycles later; the detector is blind for 5000
// cycles.
func faultCrash() FaultConfig {
	return FaultConfig{
		Crashes:       []Crash{{Node: 1, At: 80000, Rejoin: 160000}},
		DetectLatency: 5000,
	}
}

// TestRedispatchBeatsDropOnGoodput is the recovery-policy acceptance
// criterion: under the committed crash, redispatching in-flight
// requests strictly beats drop-on-failure on fleet SLO goodput. The
// population carries a long-tail anchor request on an uncrashed node,
// so both policies finish at the same makespan and the comparison
// isolates what recovery actually saves: the victims' tokens.
func TestRedispatchBeatsDropOnGoodput(t *testing.T) {
	scn := faultFleetScenario(t)
	scn.Requests[0].DecodeTokens = 70 // the anchor: pins the fleet makespan
	cfg := testConfig()
	slo := serving.SLO{TTFTCycles: 600000}
	run := func(drop bool) *Metrics {
		ft := faultCrash()
		ft.Drop = drop
		m, err := Run(cfg, scn, 4, Policy{Kind: LeastOutstanding}, Options{Faults: ft})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	re := run(false)
	if re.Redispatched == 0 {
		t.Fatal("committed crash recovered no in-flight requests — scenario not exercising redispatch")
	}
	if re.Dropped != 0 || re.Tokens != scn.TotalTokens() {
		t.Fatalf("redispatch lost work: dropped=%d tokens=%d/%d", re.Dropped, re.Tokens, scn.TotalTokens())
	}
	dr := run(true)
	if dr.Dropped == 0 || dr.Redispatched != 0 {
		t.Fatalf("drop-on-failure run: dropped=%d redispatched=%d, want >0/0", dr.Dropped, dr.Redispatched)
	}
	if dr.Tokens >= scn.TotalTokens() {
		t.Fatalf("drop-on-failure still served everything: %d tokens", dr.Tokens)
	}
	gRe, gDr := re.Goodput(slo), dr.Goodput(slo)
	if gDr.Unfinished != int(dr.Dropped) {
		t.Errorf("drop goodput unfinished %d != dropped %d", gDr.Unfinished, dr.Dropped)
	}
	if !(gRe.GoodputPerKCycle > gDr.GoodputPerKCycle) {
		t.Errorf("redispatch goodput %v not strictly above drop-on-failure %v",
			gRe.GoodputPerKCycle, gDr.GoodputPerKCycle)
	}
}

// TestHealthAwareBeatsBlindOnP95 is the routing acceptance criterion:
// with the detector's exclusions applied, the fleet's p95 end-to-end
// latency is strictly below blind routing's on the committed crash.
// Blind routing keeps dispatching to the dead node (its outstanding
// load reads zero — maximally attractive to least-outstanding) and
// every such dispatch burns a backoff wait; the retry budget is sized
// so no request drops — blind pays in latency, not in tombstones that
// would hide from the percentiles.
func TestHealthAwareBeatsBlindOnP95(t *testing.T) {
	scn := faultFleetScenario(t)
	cfg := testConfig()
	// Never-saturating overload config: supplies the enlarged retry
	// budget the dead-node losses draw on, sheds nothing.
	ov := OverloadConfig{SaturationTokens: 1 << 40, MaxRetries: 10, BackoffBase: 10000}
	run := func(blind bool) *Metrics {
		ft := FaultConfig{
			Crashes:       []Crash{{Node: 0, At: 80000, Rejoin: 160000}},
			DetectLatency: 5000,
			Blind:         blind,
		}
		m, err := Run(cfg, scn, 4, Policy{Kind: LeastOutstanding}, Options{Faults: ft, Overload: ov})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	aware, blind := run(false), run(true)
	if blind.Retries == 0 {
		t.Fatal("blind routing lost no dispatches to the dead node — scenario not exercising the blind window")
	}
	if aware.Dropped != 0 || blind.Dropped != 0 {
		t.Fatalf("dropped requests would bias the percentiles: aware=%d blind=%d", aware.Dropped, blind.Dropped)
	}
	if aware.Redispatched != blind.Redispatched {
		t.Errorf("recovery diverged: aware redispatched %d, blind %d", aware.Redispatched, blind.Redispatched)
	}
	// Health-aware routing loses dispatches only inside the 5000-cycle
	// blind window; blind routing loses them for the whole downtime.
	if aware.Retries >= blind.Retries {
		t.Errorf("aware run retried %d >= blind %d — exclusion not routing around the dead node", aware.Retries, blind.Retries)
	}
	if !(aware.E2ELatency.P95 < blind.E2ELatency.P95) {
		t.Errorf("health-aware p95 %v not strictly below blind %v", aware.E2ELatency.P95, blind.E2ELatency.P95)
	}
}

// TestFaultsNeverTriggeredBitIdentity: a fault schedule that never
// fires inside the run (a crash far beyond the makespan) leaves every
// simulated metric bit-identical to the fault-free fleet — the fault
// machinery itself never perturbs a run. Only the fault bookkeeping
// (the config echo and the scheduled-but-idle crash count) may differ.
func TestFaultsNeverTriggeredBitIdentity(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	off, err := Run(cfg, scn, 3, Policy{Kind: LeastOutstanding}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(cfg, scn, 3, Policy{Kind: LeastOutstanding},
		Options{Faults: FaultConfig{Crashes: []Crash{{Node: 0, At: 1 << 40}}, DetectLatency: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if on.Redispatched != 0 || on.LostTokens != 0 || on.Dropped != 0 || on.DowntimeCycles != 0 {
		t.Fatalf("beyond-makespan crash still acted: %+v", on)
	}
	off.StripStepCache()
	on.StripStepCache()
	// The recorded configuration and the (idle) crash bookkeeping
	// legitimately differ; everything simulated must not.
	on.Faults = off.Faults
	on.Failures = 0
	on.PerNodeFaults = nil
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("never-triggered fault schedule changed the run:\n%v\n%v", off, on)
	}
}

// TestFaultRunWidthDeterminism: a run exercising the whole fault
// machinery — crash, straggler window, generated crashes, detection,
// redispatch — is bit-identical across worker-pool widths.
func TestFaultRunWidthDeterminism(t *testing.T) {
	scn := faultFleetScenario(t)
	cfg := testConfig()
	ft := FaultConfig{
		Crashes:       []Crash{{Node: 1, At: 80000, Rejoin: 160000}},
		Stragglers:    []Straggler{{Node: 2, From: 40000, To: 120000, Factor: 3}},
		Gen:           &FaultGen{Seed: 5, MTBF: 300000, MTTR: 50000, Count: 2},
		DetectLatency: 5000,
	}
	run := func(par int) *Metrics {
		m, err := Run(cfg, scn, 4, Policy{Kind: LeastOutstanding}, Options{Faults: ft, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		m.StripStepCache()
		return m
	}
	serial, wide := run(1), run(runtime.GOMAXPROCS(0))
	if serial.Failures == 0 || serial.Redispatched == 0 {
		t.Fatalf("fault scenario idle: %d failures, %d redispatched", serial.Failures, serial.Redispatched)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("faulty run not bit-identical across worker widths")
	}
}

// TestCrashMidPrefillRecovers: a crash landing while victims are still
// prefilling (chunked scheduler, crash in the thick of the arrival
// burst) recovers cleanly — every request finishes its exact decode
// budget, decode tokens are never generated twice, and the recompute
// debt is visible as extra fleet prefill work.
func TestCrashMidPrefillRecovers(t *testing.T) {
	scn := faultFleetScenario(t)
	cfg := testConfig()
	m, err := Run(cfg, scn, 2, Policy{Kind: RoundRobin}, Options{
		Faults: FaultConfig{Crashes: []Crash{{Node: 0, At: 40000, Rejoin: 120000}}, DetectLatency: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Redispatched == 0 {
		t.Fatal("crash recovered nothing — not exercising redispatch")
	}
	if m.Dropped != 0 {
		t.Fatalf("redispatch dropped %d requests", m.Dropped)
	}
	// Decode work is conserved: the fleet generates every token exactly
	// once, whichever nodes a request bounced across.
	if m.Tokens != scn.TotalTokens() {
		t.Fatalf("fleet decoded %d tokens, want %d exactly once each", m.Tokens, scn.TotalTokens())
	}
	var promptTotal, prefillDone int64
	for _, r := range scn.Requests {
		promptTotal += int64(r.PromptLen)
	}
	for _, nm := range m.PerNode {
		prefillDone += nm.PrefillTokens
	}
	if prefillDone <= promptTotal {
		t.Errorf("fleet prefilled %d tokens over %d of prompts — no recompute debt, crash missed the prefill phase",
			prefillDone, promptTotal)
	}
	for _, rs := range m.PerRequest {
		if rs.Tokens != scn.Requests[rs.ID].DecodeTokens || rs.FinishCycle == 0 {
			t.Errorf("request %d tokens=%d finish=%d, want %d/finished",
				rs.ID, rs.Tokens, rs.FinishCycle, scn.Requests[rs.ID].DecodeTokens)
		}
		if rs.TTFT != rs.FirstTokenCycle-rs.ArrivalCycle {
			t.Errorf("request %d TTFT %d not measured from original arrival", rs.ID, rs.TTFT)
		}
	}
}

// TestDeadNodeRetriesExhausted: requests arriving against a
// permanently-dead sole node burn their whole retry budget and drop —
// tombstoned with Node -1 and excluded from the latency percentiles
// (which must summarise exactly the served population).
func TestDeadNodeRetriesExhausted(t *testing.T) {
	scn := faultFleetScenario(t)
	cfg := testConfig()
	m, err := Run(cfg, scn, 1, Policy{Kind: LeastOutstanding}, Options{
		Faults: FaultConfig{Crashes: []Crash{{Node: 0, At: 60000}}}, // never rejoins
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped == 0 {
		t.Fatal("permanent failure dropped nothing")
	}
	var e2e, qd, ttft []float64
	for _, rs := range m.PerRequest {
		if rs.Dropped {
			if rs.Node != -1 || rs.Tokens != 0 || rs.FinishCycle != 0 {
				t.Errorf("dropped request %d has served-looking stats: %+v", rs.ID, rs)
			}
			if rs.Retries != DefaultMaxRetries {
				t.Errorf("dropped request %d retried %d times, want the full default budget %d",
					rs.ID, rs.Retries, DefaultMaxRetries)
			}
			continue
		}
		e2e = append(e2e, float64(rs.E2ELatency))
		qd = append(qd, float64(rs.QueueDelay))
		ttft = append(ttft, float64(rs.TTFT))
	}
	if got, want := serving.Summarise(e2e), m.E2ELatency; got != want {
		t.Errorf("E2E percentiles include tombstones: %+v != %+v", want, got)
	}
	if got, want := serving.Summarise(qd), m.QueueDelay; got != want {
		t.Errorf("queue-delay percentiles include tombstones: %+v != %+v", want, got)
	}
	if got, want := serving.Summarise(ttft), m.TTFT; got != want {
		t.Errorf("TTFT percentiles include tombstones: %+v != %+v", want, got)
	}
	// The node is charged for its whole post-crash existence.
	if m.DowntimeCycles != m.Makespan-60000 {
		t.Errorf("downtime %d, want makespan %d - crash cycle 60000", m.DowntimeCycles, m.Makespan)
	}
}

// TestRejoinThenImmediateCrash: a node may crash again on the very
// cycle it rejoins (rejoin orders before crash within a cycle). Both
// incidents count, downtime is the exact union of the two windows, and
// the fleet still serves everything via redispatch.
func TestRejoinThenImmediateCrash(t *testing.T) {
	scn := faultFleetScenario(t)
	cfg := testConfig()
	m, err := Run(cfg, scn, 3, Policy{Kind: LeastOutstanding}, Options{
		Faults: FaultConfig{
			Crashes:       []Crash{{Node: 0, At: 50000, Rejoin: 120000}, {Node: 0, At: 120000, Rejoin: 200000}},
			DetectLatency: 2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nf := m.PerNodeFaults[0]
	if nf.Failures != 2 {
		t.Errorf("node 0 failures %d, want 2 (rejoin-then-immediate-crash)", nf.Failures)
	}
	if want := int64((120000 - 50000) + (200000 - 120000)); nf.DowntimeCycles != want {
		t.Errorf("node 0 downtime %d, want exactly %d (the union of both windows)", nf.DowntimeCycles, want)
	}
	if m.PerNodeFaults[1].Failures != 0 || m.PerNodeFaults[2].Failures != 0 {
		t.Errorf("healthy nodes report failures: %+v", m.PerNodeFaults)
	}
	if m.Failures != 2 || m.DowntimeCycles != nf.DowntimeCycles {
		t.Errorf("fleet counters %d/%d disagree with the per-node sum %d/%d",
			m.Failures, m.DowntimeCycles, nf.Failures, nf.DowntimeCycles)
	}
	if m.Dropped != 0 || m.Tokens != scn.TotalTokens() {
		t.Errorf("double crash lost work: dropped=%d tokens=%d/%d", m.Dropped, m.Tokens, scn.TotalTokens())
	}
}

// TestStragglerCoversWholeLifetime: a straggler window spanning a
// closed batch's entire service scales the makespan by exactly the
// slowdown factor — every step the node executes costs factor× its
// nominal cycles, with no unscaled edges (arrivals at cycle 0, no idle
// gaps, window open well past completion).
func TestStragglerCoversWholeLifetime(t *testing.T) {
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{ID: i, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 3, Session: i}
	}
	scn := Scenario{Name: "straggler/closed", Requests: reqs, MaxBatch: 2}
	cfg := testConfig()
	base, err := Run(cfg, scn, 1, Policy{Kind: RoundRobin}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const factor = 3
	slow, err := Run(cfg, scn, 1, Policy{Kind: RoundRobin}, Options{
		Faults: FaultConfig{Stragglers: []Straggler{{Node: 0, From: 0, To: 1 << 40, Factor: factor}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan == 0 || slow.Makespan != factor*base.Makespan {
		t.Errorf("straggled makespan %d, want exactly %d × %d", slow.Makespan, factor, base.Makespan)
	}
	if slow.Tokens != base.Tokens {
		t.Errorf("straggler changed the served tokens: %d vs %d", slow.Tokens, base.Tokens)
	}
	// Latencies scale with the steps they are made of.
	if slow.E2ELatency.Max != factor*base.E2ELatency.Max || slow.TTFT.Max != factor*base.TTFT.Max {
		t.Errorf("latencies not scaled by the factor: e2e max %v vs %v, ttft max %v vs %v",
			slow.E2ELatency.Max, base.E2ELatency.Max, slow.TTFT.Max, base.TTFT.Max)
	}
}

// TestRouterHealthExclusion unit-tests the detector's exclusion mask
// against every policy: excluded nodes never receive a dispatch, each
// policy's selection logic is preserved over the live subset, and an
// all-excluded mask is ignored (equivalent to nil).
func TestRouterHealthExclusion(t *testing.T) {
	req := func(id, session int) Request {
		return Request{ID: id, Model: workload.Llama3_70B, PromptLen: 16, DecodeTokens: 2, Session: session}
	}
	t.Run("round-robin", func(t *testing.T) {
		rt := newRouter(Policy{Kind: RoundRobin}, 3)
		excl := []bool{false, true, false}
		want := []int{0, 2, 0, 2, 0, 2} // node 1 skipped, cursor still advances
		zeros := make([]int64, 3)
		for k, w := range want {
			if got := rt.pick(req(k, 0), zeros, zeros, nil, excl); got != w {
				t.Fatalf("dispatch %d went to node %d, want %d", k, got, w)
			}
		}
	})
	t.Run("least-outstanding", func(t *testing.T) {
		rt := newRouter(Policy{Kind: LeastOutstanding}, 4)
		// The global minimum (node 1) is dead: the live minimum wins.
		if got := rt.pick(req(0, 0), []int64{5, 1, 9, 3}, make([]int64, 4), nil, []bool{false, true, false, false}); got != 3 {
			t.Fatalf("picked node %d, want the live minimum 3", got)
		}
	})
	t.Run("p2c", func(t *testing.T) {
		rt := newRouter(Policy{Kind: PowerOfTwo, Seed: 9}, 4)
		load := []int64{4, 1, 3, 2}
		zeros := make([]int64, 4)
		excl := []bool{true, false, true, false}
		for k := 0; k < 64; k++ {
			if got := rt.pick(req(k, 0), load, zeros, nil, excl); got != 1 && got != 3 {
				t.Fatalf("dispatch %d sampled dead node %d", k, got)
			}
		}
	})
	t.Run("ttft-pressure", func(t *testing.T) {
		rt := newRouter(Policy{Kind: LeastTTFTPressure}, 4)
		load := []int64{5, 1, 3, 6}
		backlog := []int64{0, 0, 0, 0}
		// The least-pressure node 1 is dead: next-lowest live pressure wins.
		if got := rt.pick(req(0, 0), load, backlog, nil, []bool{false, true, false, false}); got != 2 {
			t.Fatalf("picked node %d, want the live least-pressure node 2", got)
		}
	})
	t.Run("affinity", func(t *testing.T) {
		rt := newRouter(Policy{Kind: SessionAffinity}, 4)
		zeros := make([]int64, 4)
		const session = 7
		home := sessionNode(session, 4)
		excl := make([]bool, 4)
		excl[home] = true
		want := (home + 1) % 4
		for k := 0; k < 8; k++ {
			if got := rt.pick(req(k, session), zeros, zeros, nil, excl); got != want {
				t.Fatalf("dispatch %d went to node %d, want the stable fallback %d", k, got, want)
			}
		}
		// Home healthy again: the session snaps back.
		if got := rt.pick(req(8, session), zeros, zeros, nil, make([]bool, 4)); got != home {
			t.Fatalf("rejoined home ignored: got node %d, want %d", got, home)
		}
	})
	t.Run("prefix-affinity", func(t *testing.T) {
		rt := newRouter(Policy{Kind: PrefixAffinity}, 4)
		// The best-cached node 1 is dead: the next-best live cache wins.
		if got := rt.pick(req(0, 6), nil, nil, []int64{0, 120, 80, 0}, []bool{false, true, false, false}); got != 2 {
			t.Fatalf("picked node %d, want the live cache holder 2", got)
		}
		// Nothing cached anywhere and the home node dead: affinity fallback.
		home := sessionNode(6, 4)
		excl := make([]bool, 4)
		excl[home] = true
		if got := rt.pick(req(1, 6), nil, nil, make([]int64, 4), excl); got != (home+1)%4 {
			t.Fatalf("picked node %d, want the home fallback %d", got, (home+1)%4)
		}
	})
	t.Run("all-excluded-ignored", func(t *testing.T) {
		all := []bool{true, true, true, true}
		for _, pol := range Policies() {
			a := newRouter(Policy{Kind: pol.Kind, Seed: 9}, 4)
			b := newRouter(Policy{Kind: pol.Kind, Seed: 9}, 4)
			load := []int64{4, 1, 3, 2}
			zeros := make([]int64, 4)
			cached := []int64{0, 50, 0, 0}
			for k := 0; k < 16; k++ {
				x := a.pick(req(k, k%3), load, zeros, cached, all)
				y := b.pick(req(k, k%3), load, zeros, cached, nil)
				if x != y {
					t.Fatalf("%s: all-excluded mask changed dispatch %d: %d vs %d", pol, k, x, y)
				}
			}
		}
	})
}
