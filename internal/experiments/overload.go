// The overload grid: goodput-vs-load curves for the overload-control
// study. One fleet workload family is regenerated at a sweep of
// arrival-rate multipliers (the x-axis of a goodput curve) and run
// under a matrix of overload-control combos — preemption policy on
// every node × shedding/retry/forwarding at the router — with
// goodput-under-SLO as the headline metric. As load climbs past
// saturation, raw throughput plateaus while goodput collapses; the
// grid shows how much of the collapse each combo recovers.

package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/serving"
)

// OverloadCombo is one overload-control configuration under test:
// the per-node preemption policy plus the router's shedding
// configuration. The zero value is uncontrolled — head-of-line
// blocking on the nodes, never-shed at the router.
type OverloadCombo struct {
	Label   string
	Preempt serving.PreemptPolicy
	Shed    cluster.OverloadConfig
}

// OverloadCellResult is one cell's outcome: the full fleet metrics
// plus the goodput-under-SLO report.
type OverloadCellResult struct {
	Metrics *cluster.Metrics
	Goodput serving.SLOReport
}

// OverloadGridResult is one workload family evaluated across an
// arrival-rate × overload-combo matrix.
type OverloadGridResult struct {
	Config cluster.ScenarioConfig
	Rates  []float64
	Combos []OverloadCombo
	Nodes  int
	Router cluster.Policy
	Pol    Policy
	SLO    serving.SLO
	// Cells[i][j] is Rates[i] under Combos[j].
	Cells [][]OverloadCellResult
}

// OverloadGrid sweeps arrival rate × overload-control combo for one
// fleet workload family and collects fleet metrics plus goodput in
// matrix order — the goodput-vs-load curves of the overload study.
// Each cell regenerates the workload with MeanInterArrival divided by
// its rate multiplier (so the same seed explores the same request
// population under denser arrivals) and the combo's preemption policy;
// cfg.Sched must already satisfy the combos' preemption requirements
// (a prefill scheduler and a finite KV capacity). Deterministic at any
// Options.Parallel.
func OverloadGrid(cfg cluster.ScenarioConfig, rates []float64, combos []OverloadCombo,
	nodes int, router cluster.Policy, pol Policy, slo serving.SLO, opts Options) (*OverloadGridResult, error) {
	if len(rates) == 0 || len(combos) == 0 {
		return nil, fmt.Errorf("overload grid: empty rate or combo list")
	}
	cells := make([]ClusterCellSpec, 0, len(rates)*len(combos))
	for _, rate := range rates {
		// NaN fails every comparison, so test for the valid range.
		if !(rate > 0) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("overload grid: rate multiplier must be positive and finite, got %g", rate)
		}
		for _, combo := range combos {
			scfg := cfg
			scfg.MeanInterArrival /= rate
			scfg.Sched.Preempt = combo.Preempt
			scfg.Name = fmt.Sprintf("%s/x%g", cfg.Name, rate)
			scn, err := cluster.NewScenario(scfg)
			if err != nil {
				return nil, fmt.Errorf("overload grid %s %s: %w", scfg.Name, combo.Label, err)
			}
			cells = append(cells, ClusterCellSpec{
				Scenario: scn, Nodes: nodes, Router: router, Pol: pol, Overload: combo.Shed,
				Label: fmt.Sprintf("%s-n%d-%s", scfg.Name, nodes, combo.Label),
			})
		}
	}
	metrics, err := RunClusterCells(cells, opts)
	if err != nil {
		return nil, err
	}
	results := make([]OverloadCellResult, len(metrics))
	for i, m := range metrics {
		results[i] = OverloadCellResult{Metrics: m, Goodput: m.Goodput(slo)}
	}
	out := &OverloadGridResult{
		Config: cfg, Rates: rates, Combos: combos,
		Nodes: nodes, Router: router, Pol: pol, SLO: slo,
	}
	out.Cells = make([][]OverloadCellResult, len(rates))
	for i := range rates {
		out.Cells[i] = results[i*len(combos) : (i+1)*len(combos)]
	}
	return out, nil
}

// Render formats the grid as an aligned per-cell table of the
// goodput-vs-load curves.
func (g *OverloadGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d requests, %d nodes, router %s, cache policy %s, SLO ttft<=%d tbt<=%.0f\n\n",
		g.Config.Name, g.Config.NumRequests, g.Nodes, g.Router, g.Pol.Label,
		g.SLO.TTFTCycles, g.SLO.TBTCycles)
	fmt.Fprintf(&b, "%-6s %-18s %12s %12s %8s %8s %8s %8s %10s\n",
		"rate", "combo", "goodput", "tok/kcycle", "met-slo", "dropped", "shed", "preempt", "e2e-p99")
	for i, rate := range g.Rates {
		for j, combo := range g.Combos {
			r := g.Cells[i][j]
			m := r.Metrics
			var preempts int64
			for _, nm := range m.PerNode {
				preempts += nm.Preemptions
			}
			fmt.Fprintf(&b, "%-6g %-18s %12.4f %12.4f %8d %8d %8d %8d %10.0f\n",
				rate, combo.Label, r.Goodput.GoodputPerKCycle, m.FleetTokensPerKCycle,
				r.Goodput.MetSLO, m.Dropped, m.Shed, preempts, m.E2ELatency.P99)
		}
	}
	return b.String()
}
