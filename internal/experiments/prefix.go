// The prefix grid: TTFT-vs-router curves for the session prefix-cache
// study. One fleet workload family is regenerated at a sweep of
// session locality (how many distinct conversations share the request
// population) × per-node prefix-cache capacity, and each workload is
// run under every router under test. Affinity routers keep a session
// on the node that retains its prefix, so follow-up turns skip most of
// their prefill; load-balancing routers migrate sessions and re-prefill
// their whole context. The grid quantifies that trade as TTFT
// percentiles against prefix-hit statistics.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// PrefixCellResult is one cell's outcome: the full fleet metrics (the
// TTFT distribution and the fleet prefix-cache counters are the
// headline columns).
type PrefixCellResult struct {
	Metrics *cluster.Metrics
}

// PrefixGridResult is one workload family evaluated across a session
// locality × cache capacity × router matrix.
type PrefixGridResult struct {
	Config   cluster.ScenarioConfig
	Sessions []int
	Caches   []int64
	Routers  []cluster.Policy
	Nodes    int
	Pol      Policy
	// Cells[i][j][k] is Sessions[i] × Caches[j] under Routers[k].
	Cells [][][]PrefixCellResult
}

// PrefixGrid sweeps session locality × prefix-cache capacity × router
// for one fleet workload family and collects fleet metrics in matrix
// order — the TTFT-vs-router curves of the prefix-reuse study. Each
// (sessions, cache) point regenerates the workload with NumSessions and
// Sched.PrefixCacheTokens overridden, so the same seed explores the
// same request population at every locality/capacity point; a zero
// session count keeps cfg's session structure, and a zero capacity is
// the cache-off baseline. cfg.Sched must already run a prefill
// scheduler when any point enables the cache. Deterministic at any
// Options.Parallel.
func PrefixGrid(cfg cluster.ScenarioConfig, sessions []int, caches []int64,
	routers []cluster.Policy, nodes int, pol Policy, opts Options) (*PrefixGridResult, error) {
	if len(sessions) == 0 || len(caches) == 0 || len(routers) == 0 {
		return nil, fmt.Errorf("prefix grid: empty session, cache or router list")
	}
	cells := make([]ClusterCellSpec, 0, len(sessions)*len(caches)*len(routers))
	for _, s := range sessions {
		for _, c := range caches {
			scfg := cfg
			if s > 0 {
				scfg.NumSessions = s
				scfg.ScenarioConfig.NumSessions = 0 // the cluster layer forwards it
			}
			scfg.Sched.PrefixCacheTokens = c
			scfg.Name = fmt.Sprintf("%s/s%d-c%d", cfg.Name, scfg.NumSessions, c)
			scn, err := cluster.NewScenario(scfg)
			if err != nil {
				return nil, fmt.Errorf("prefix grid %s: %w", scfg.Name, err)
			}
			for _, rt := range routers {
				cells = append(cells, ClusterCellSpec{
					Scenario: scn, Nodes: nodes, Router: rt, Pol: pol,
					Label: fmt.Sprintf("%s-n%d-%s", scfg.Name, nodes, rt),
				})
			}
		}
	}
	metrics, err := RunClusterCells(cells, opts)
	if err != nil {
		return nil, err
	}
	results := make([]PrefixCellResult, len(metrics))
	for i, m := range metrics {
		results[i] = PrefixCellResult{Metrics: m}
	}
	out := &PrefixGridResult{
		Config: cfg, Sessions: sessions, Caches: caches, Routers: routers,
		Nodes: nodes, Pol: pol,
	}
	out.Cells = make([][][]PrefixCellResult, len(sessions))
	for i := range sessions {
		out.Cells[i] = make([][]PrefixCellResult, len(caches))
		for j := range caches {
			base := (i*len(caches) + j) * len(routers)
			out.Cells[i][j] = results[base : base+len(routers)]
		}
	}
	return out, nil
}

// Render formats the grid as an aligned per-cell table of the
// TTFT-vs-router curves.
func (g *PrefixGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d requests, depth-%d sessions, %d nodes, cache policy %s\n\n",
		g.Config.Name, g.Config.NumRequests, g.Config.SessionDepth, g.Nodes, g.Pol.Label)
	fmt.Fprintf(&b, "%-9s %-10s %-18s %10s %10s %10s %6s %6s %8s %12s\n",
		"sessions", "cache", "router", "ttft-p50", "ttft-p95", "e2e-p95", "hits", "rate", "saved", "tok/kcycle")
	for i, s := range g.Sessions {
		for j, c := range g.Caches {
			for k, rt := range g.Routers {
				m := g.Cells[i][j][k].Metrics
				fmt.Fprintf(&b, "%-9d %-10d %-18s %10.0f %10.0f %10.0f %6d %6.2f %8d %12.4f\n",
					s, c, rt, m.TTFT.P50, m.TTFT.P95, m.E2ELatency.P95,
					m.PrefixHits, m.PrefixHitRate, m.PrefillTokensSaved, m.FleetTokensPerKCycle)
			}
		}
	}
	return b.String()
}
