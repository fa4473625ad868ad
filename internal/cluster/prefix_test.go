// Fleet-level prefix-cache tests: the ISSUE 7 acceptance scenario
// (session affinity with a prefix cache strictly beats
// least-outstanding on TTFT), the prefix-affinity router's observation
// and fallback semantics, parallel-width determinism with the cache
// on, and cache-off bit-identity on session-carrying workloads —
// including under preemption.

package cluster

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/serving"
)

// sessionFleetScenario is the committed session-heavy fleet workload
// of the acceptance test: eight 3-turn conversation sessions over 24
// requests, arrivals spaced so a session's turns rarely overlap (the
// regime where retained prefixes are actually reusable) while
// cross-session traffic keeps both nodes busy. On 2 nodes the eight
// session homes hash 4/4, so affinity routing is load-balanced and
// the TTFT comparison isolates prefix locality.
func sessionFleetScenario(t *testing.T, cacheTokens int64) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "sessions/fleet", Seed: 13, NumRequests: 24,
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 60000, MaxBatch: 4,
			SessionDepth: 3,
			Sched: serving.SchedulerConfig{
				Policy: serving.SchedChunked, ChunkTokens: 16,
				PrefixCacheTokens: cacheTokens,
			},
		},
		NumSessions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestAffinityPrefixBeatsLeastOutstandingTTFT is the acceptance test
// of ISSUE 7: on the committed session-heavy scenario with the prefix
// cache on, session-affinity routing strictly beats least-outstanding
// on TTFT p50 AND p95 — the home node holds the session's prefix, so
// follow-up turns skip most of their prefill, while least-outstanding
// migrates sessions between nodes and re-prefills their whole context.
// Prefix-affinity (the observing router) must do at least as well as
// the blind hash.
func TestAffinityPrefixBeatsLeastOutstandingTTFT(t *testing.T) {
	scn := sessionFleetScenario(t, 4096)
	cfg := bmaConfig()
	aff, err := Run(cfg, scn, 2, Policy{Kind: SessionAffinity}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pfx, err := Run(cfg, scn, 2, Policy{Kind: PrefixAffinity}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lot, err := Run(cfg, scn, 2, Policy{Kind: LeastOutstanding}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if aff.TTFT.P50 >= lot.TTFT.P50 || aff.TTFT.P95 >= lot.TTFT.P95 {
		t.Errorf("affinity does not strictly beat least-outstanding: p50 %.0f vs %.0f, p95 %.0f vs %.0f",
			aff.TTFT.P50, lot.TTFT.P50, aff.TTFT.P95, lot.TTFT.P95)
	}
	if pfx.TTFT.P50 >= lot.TTFT.P50 || pfx.TTFT.P95 >= lot.TTFT.P95 {
		t.Errorf("prefix-affinity does not strictly beat least-outstanding: p50 %.0f vs %.0f, p95 %.0f vs %.0f",
			pfx.TTFT.P50, lot.TTFT.P50, pfx.TTFT.P95, lot.TTFT.P95)
	}
	if aff.PrefixHits <= lot.PrefixHits {
		t.Errorf("affinity hit %d prefixes, least-outstanding %d — locality earned nothing", aff.PrefixHits, lot.PrefixHits)
	}
	if aff.PrefillTokensSaved <= lot.PrefillTokensSaved {
		t.Errorf("affinity saved %d prefill tokens, least-outstanding %d", aff.PrefillTokensSaved, lot.PrefillTokensSaved)
	}
	// All routers decode the same output; reuse only removes prefill.
	if aff.Tokens != lot.Tokens || pfx.Tokens != lot.Tokens {
		t.Errorf("routers decoded different outputs: %d / %d / %d tokens", aff.Tokens, pfx.Tokens, lot.Tokens)
	}

	// Fleet aggregation is the sum over nodes, and the per-request
	// PrefixTokens account for every saved token.
	var hits, misses, saved int64
	for _, nm := range aff.PerNode {
		hits += nm.PrefixHits
		misses += nm.PrefixMisses
		saved += nm.PrefillTokensSaved
	}
	if aff.PrefixHits != hits || aff.PrefixMisses != misses || aff.PrefillTokensSaved != saved {
		t.Errorf("fleet prefix rollup %d/%d/%d != per-node sums %d/%d/%d",
			aff.PrefixHits, aff.PrefixMisses, aff.PrefillTokensSaved, hits, misses, saved)
	}
	var perReq int64
	for _, rs := range aff.PerRequest {
		perReq += int64(rs.PrefixTokens)
	}
	if perReq != aff.PrefillTokensSaved {
		t.Errorf("per-request PrefixTokens sum %d != fleet PrefillTokensSaved %d", perReq, aff.PrefillTokensSaved)
	}
	if want := float64(hits) / float64(hits+misses); aff.PrefixHitRate != want {
		t.Errorf("fleet hit rate %v, want %v", aff.PrefixHitRate, want)
	}
}

// TestPrefixAffinityRouting pins the observing router's semantics:
// pick follows the largest cached-prefix observation (ties to the
// lowest index), and with nothing cached anywhere it falls back to
// the session home hash — so with the cache off the policy is
// decision-for-decision identical to session-affinity, which the
// run-level comparison asserts bit for bit.
func TestPrefixAffinityRouting(t *testing.T) {
	rt := newRouter(Policy{Kind: PrefixAffinity}, 4)
	req := Request{Session: 6}
	if got := rt.pick(req, nil, nil, []int64{0, 120, 80, 120}, nil); got != 1 {
		t.Errorf("pick with cached observations = node %d, want 1 (max cached, lowest index)", got)
	}
	if got, home := rt.pick(req, nil, nil, make([]int64, 4), nil), sessionNode(6, 4); got != home {
		t.Errorf("pick with nothing cached = node %d, want the session home %d", got, home)
	}

	scn := sessionFleetScenario(t, 0) // cache off: every observation is zero
	pa, err := Run(bmaConfig(), scn, 2, Policy{Kind: PrefixAffinity}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Run(bmaConfig(), scn, 2, Policy{Kind: SessionAffinity}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa.StripStepCache()
	sa.StripStepCache()
	pa.Policy = sa.Policy // the only legitimate difference
	if !reflect.DeepEqual(pa, sa) {
		t.Error("cache-off prefix-affinity diverges from session-affinity")
	}
}

// TestClusterPrefixParallelDeterminism: cache-on fleets are
// bit-identical across node-fan-out widths 1 and GOMAXPROCS for the
// routers the acceptance comparison uses — the TTFT-vs-router curves
// cannot depend on -parallel.
func TestClusterPrefixParallelDeterminism(t *testing.T) {
	scn := sessionFleetScenario(t, 4096)
	wide := runtime.GOMAXPROCS(0)
	for _, pol := range []Policy{{Kind: SessionAffinity}, {Kind: PrefixAffinity}, {Kind: LeastOutstanding}} {
		serial, err := Run(bmaConfig(), scn, 2, pol, Options{Parallel: 1, Memo: serving.NewStepMemo()})
		if err != nil {
			t.Fatalf("%s serial: %v", pol, err)
		}
		par, err := Run(bmaConfig(), scn, 2, pol, Options{Parallel: wide, Memo: serving.NewStepMemo()})
		if err != nil {
			t.Fatalf("%s parallel: %v", pol, err)
		}
		serial.StripStepCache()
		par.StripStepCache()
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: cache-on fleet metrics differ between widths 1 and %d", pol, wide)
		}
	}
}

// TestClusterPrefixOffInert: with PrefixCacheTokens == 0 the session
// fields are inert at the fleet level even under KV pressure and
// preemption — stripping Session/PrefixLen from every request (the
// pre-session workload shape) leaves the cluster metrics bit-identical.
// Together with the unchanged PR 4/5/6 golden suites this is the
// cache-off bit-identity guarantee.
func TestClusterPrefixOffInert(t *testing.T) {
	scn := sessionFleetScenario(t, 0)
	scn.Sched.KVCapTokens = 200
	scn.Sched.Preempt = serving.PreemptNewest
	scn.Requests = append([]Request(nil), scn.Requests...)
	for i := range scn.Requests {
		scn.Requests[i].ArrivalCycle = 0 // closed batch: force KV pressure
	}
	sortRequests(scn.Requests)

	stripped := scn
	stripped.Requests = append([]Request(nil), scn.Requests...)
	for i := range stripped.Requests {
		stripped.Requests[i].Session = 0
		stripped.Requests[i].PrefixLen = 0
	}

	for _, pol := range []Policy{{Kind: RoundRobin}, {Kind: LeastOutstanding}} {
		with, err := Run(bmaConfig(), scn, 2, pol, Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		var preempted int64
		for _, nm := range with.PerNode {
			preempted += nm.Preemptions
		}
		if preempted == 0 {
			t.Fatalf("%s: scenario preempted nothing — the test exercises no KV pressure", pol)
		}
		without, err := Run(bmaConfig(), stripped, 2, pol, Options{})
		if err != nil {
			t.Fatalf("%s stripped: %v", pol, err)
		}
		with.StripStepCache()
		without.StripStepCache()
		// PerRequest.Session is a pure echo of the workload's session
		// labels, so it legitimately differs; zero it before asserting the
		// behavioural metrics are identical.
		with.PerRequest = append([]RequestStats(nil), with.PerRequest...)
		for i := range with.PerRequest {
			with.PerRequest[i].Session = 0
		}
		if !reflect.DeepEqual(with, without) {
			t.Errorf("%s: cache-off metrics depend on Session/PrefixLen under preemption", pol)
		}
	}
}

// sortRequests orders requests by arrival cycle, ties by ID — the
// global dispatch order of the router.
func sortRequests(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.ArrivalCycle, b.ArrivalCycle), cmp.Compare(a.ID, b.ID))
	})
}
