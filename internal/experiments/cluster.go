// The cluster-scale grid: the routed multi-node fleet simulator run
// across a router-policy × node-count matrix, the way ServeGrid runs
// one scenario across the throttle/arbiter matrix. A cluster cell is
// one complete fleet simulation; cells are independent and
// deterministic, so the grid fans out across the shared bounded
// worker pool with results in stable matrix order — and each cell's
// own node fan-out is bit-reproducible at any width, so nesting the
// two levels of parallelism never changes a number.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
)

// ClusterCellSpec names one fleet simulation: a scenario on a node
// count under a router policy and a cache policy, optionally with a
// per-cell base configuration override. Every fleet grid builds these
// cells and runs them through RunClusterCells.
type ClusterCellSpec struct {
	Scenario cluster.Scenario
	Nodes    int
	Router   cluster.Policy
	// Pol is the cache-level (throttle, arbiter) policy every node
	// runs.
	Pol Policy
	// Overload is the router's overload-control configuration (zero
	// value: disabled — the pre-overload router).
	Overload cluster.OverloadConfig
	// Faults is the cell's node-failure schedule (zero value: a
	// fault-free fleet — the exact pre-fault simulation).
	Faults cluster.FaultConfig
	// Base optionally overrides the grid's base configuration for this
	// cell (hardware sweeps under fleet load).
	Base *sim.Config
	// Label names the cell in its artifact paths, its errors and its
	// progress line. Empty means "<scenario>-n<nodes>-<router>-<policy>".
	Label string
}

func (c *ClusterCellSpec) label() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%s-n%d-%s-%s", c.Scenario.Name, c.Nodes, c.Router, c.Pol.Label)
}

// RunClusterCells executes every cluster cell across the bounded
// worker pool and returns the metrics in input order. It is the one
// runner behind every fleet grid: it checks the telemetry and
// -hwprof-out paths against the cell count before the first cell
// starts, then writes each cell's artifacts and progress line.
// Options.Scale divides the L2 size exactly like the figure and
// serving harnesses. The Options.Parallel budget is split between the
// two nested fan-outs — cells on the outer pool, node engines inside
// each cell — so a wide grid never oversubscribes the CPU with cells
// × nodes goroutines; both levels are order-stable, so the split never
// changes a number. Each outer worker's cells run one after another on
// one cluster.Scratch of the inner width, lent whole to each cell's
// run (cluster.Options.Scratch), so the grid builds step simulators
// and node engines per worker, not per cell. Each distinct scenario is
// checked once per call (cluster.Check), not once per cell.
//
// Cells of one (scenario name, node count, cache policy) group replay
// each other's steps, so two of them side by side mostly wait on each
// other's memo claims. Cells are therefore dispatched round-robin over
// the groups (see interleave); results, artifacts and the first error
// returned keep input order.
func RunClusterCells(cells []ClusterCellSpec, opts Options) ([]*cluster.Metrics, error) {
	if err := opts.checkOutputs(len(cells)); err != nil {
		return nil, err
	}
	outer := opts.parallel()
	if outer > len(cells) {
		outer = len(cells)
	}
	inner := 1
	if outer > 0 && opts.parallel()/outer > 1 {
		inner = opts.parallel() / outer
	}
	results := make([]*cluster.Metrics, len(cells))
	errs := make([]error, len(cells))
	checked := checkScenarios(cells, errs)
	order := interleave(cells)
	// Idle scratch, inner wide: a cell borrows one for its whole run,
	// so at most outer exist and a grid builds step simulators and node
	// engines per worker, not per cell.
	scratch := make(chan *cluster.Scratch, outer)
	// ForEach's own first error would follow dispatch order; errs keeps
	// input order.
	_ = pool.ForEach(len(cells), outer, func(k int) error {
		i := order[k]
		if errs[i] != nil {
			return nil
		}
		c := &cells[i]
		col := opts.Trace.Collector()
		var sc *cluster.Scratch
		select {
		case sc = <-scratch:
		default:
			sc = cluster.NewScratch(inner)
		}
		m, err := checked[i].Run(opts.cellConfig(c.Base, c.Pol), c.Nodes, c.Router,
			cluster.Options{Parallel: inner, StepCache: opts.StepCache, Overload: c.Overload, Faults: c.Faults, Telemetry: col, HWProf: opts.HWProf, Scratch: sc})
		scratch <- sc
		// The label names the cell's artifacts, progress line and error;
		// a cell with none of them never formats it.
		var label string
		if err != nil || col != nil || opts.HWProfOut != "" || opts.Log != nil {
			label = c.label()
		}
		if err == nil {
			var report func() string
			if m.HW != nil {
				report = m.HW.Render
			}
			err = opts.writeArtifacts(label, col, report)
		}
		if err != nil {
			errs[i] = fmt.Errorf("cluster cell %s: %w", label, err)
			return nil
		}
		if opts.Log != nil {
			opts.logCell(label, clusterSummary(m))
		}
		results[i] = m
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// checkScenarios checks each distinct scenario of cells once and
// returns every cell's checked scenario; a cell whose scenario fails
// the check gets its error in errs instead. Scenarios are the same when
// their fields are and their requests are the same slice.
func checkScenarios(cells []ClusterCellSpec, errs []error) []*cluster.Checked {
	type scenarioKey struct {
		name      string
		reqs      *cluster.Request
		n         int
		maxBatch  int
		includeAV bool
		sched     serving.SchedulerConfig
	}
	type check struct {
		c   cluster.Checked
		err error
	}
	checks := make(map[scenarioKey]*check)
	out := make([]*cluster.Checked, len(cells))
	for i := range cells {
		s := &cells[i].Scenario
		k := scenarioKey{s.Name, nil, len(s.Requests), s.MaxBatch, s.IncludeAV, s.Sched}
		if len(s.Requests) > 0 {
			k.reqs = &s.Requests[0]
		}
		ch := checks[k]
		if ch == nil {
			ch = new(check)
			ch.c, ch.err = cluster.Check(*s)
			checks[k] = ch
		}
		if ch.err != nil {
			errs[i] = fmt.Errorf("cluster cell %s: %w", cells[i].label(), ch.err)
			continue
		}
		out[i] = &ch.c
	}
	return out
}

// interleave returns the order in which RunClusterCells dispatches
// cells: one cell of each (scenario name, node count, cache-policy
// label) group per round, the groups in order of first appearance and
// each group's cells in input order.
func interleave(cells []ClusterCellSpec) []int {
	type groupKey struct {
		scenario string
		nodes    int
		pol      string
	}
	var groups [][]int
	index := make(map[groupKey]int)
	for i := range cells {
		k := groupKey{cells[i].Scenario.Name, cells[i].Nodes, cells[i].Pol.Label}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	order := make([]int, 0, len(cells))
	for round := 0; len(order) < len(cells); round++ {
		for _, g := range groups {
			if round < len(g) {
				order = append(order, g[round])
			}
		}
	}
	return order
}

// clusterSummary is a fleet cell's progress-line metrics.
func clusterSummary(m *cluster.Metrics) string {
	var preempts int64
	for _, nm := range m.PerNode {
		preempts += nm.Preemptions
	}
	return fmt.Sprintf("tok/kcyc=%.4f imb=%.3f e2e-p99=%.0f ttft-p95=%.0f preempt=%d shed=%d fwd=%d drop=%d pfx-rate=%.2f pfx-saved=%d failures=%d redisp=%d memo=%d/%d resets=%d spec=%d/%d",
		m.FleetTokensPerKCycle, m.LoadImbalance, m.E2ELatency.P99, m.TTFT.P95,
		preempts, m.Shed, m.Forwarded, m.Dropped, m.PrefixHitRate, m.PrefillTokensSaved,
		m.Failures, m.Redispatched,
		m.StepCache.MemoHits, m.StepCache.MemoHits+m.StepCache.MemoMisses,
		m.StepCache.SimResets, m.StepCache.SpecHits, m.StepCache.Speculated)
}

// ClusterGridResult is one scenario evaluated across a node-count ×
// router-policy matrix under one cache policy.
type ClusterGridResult struct {
	Scenario   cluster.Scenario
	NodeCounts []int
	Routers    []cluster.Policy
	Pol        Policy
	// Overload is the router overload-control configuration every
	// cell ran (zero value: disabled).
	Overload cluster.OverloadConfig
	// Faults is the node-failure schedule every cell ran (zero value:
	// fault-free).
	Faults cluster.FaultConfig
	// Metrics[i][j] is NodeCounts[i] under Routers[j].
	Metrics [][]*cluster.Metrics
}

// ClusterGridWith runs one fleet scenario across every (node count,
// router policy) cell of the matrix under a single cache policy, with
// router-level overload control (saturation shedding, retry/backoff,
// forwarding; the zero value disables it) applied to every cell, and
// collects the fleet metrics in matrix order. Deterministic at any
// Options.Parallel; Options.Scale divides the L2 size (see
// RunClusterCells).
func ClusterGridWith(scn cluster.Scenario, nodeCounts []int, routers []cluster.Policy, pol Policy,
	ov cluster.OverloadConfig, opts Options) (*ClusterGridResult, error) {
	return ClusterGridFaulty(scn, nodeCounts, routers, pol, ov, cluster.FaultConfig{}, opts)
}

// ClusterGridFaulty is ClusterGridWith with a node-failure schedule
// injected into every cell. Fault node indices are fleet-relative, so
// the schedule must be valid for every count in nodeCounts (callers
// sweeping a single count, as the CLI's -faults mode does, only need
// it valid there).
func ClusterGridFaulty(scn cluster.Scenario, nodeCounts []int, routers []cluster.Policy, pol Policy,
	ov cluster.OverloadConfig, ft cluster.FaultConfig, opts Options) (*ClusterGridResult, error) {
	if len(nodeCounts) == 0 || len(routers) == 0 {
		return nil, fmt.Errorf("cluster grid: empty node-count or router list")
	}
	cells := make([]ClusterCellSpec, 0, len(nodeCounts)*len(routers))
	for _, n := range nodeCounts {
		for _, r := range routers {
			cells = append(cells, ClusterCellSpec{Scenario: scn, Nodes: n, Router: r, Pol: pol, Overload: ov, Faults: ft})
		}
	}
	metrics, err := RunClusterCells(cells, opts)
	if err != nil {
		return nil, err
	}
	out := &ClusterGridResult{Scenario: scn, NodeCounts: nodeCounts, Routers: routers, Pol: pol, Overload: ov, Faults: ft}
	out.Metrics = make([][]*cluster.Metrics, len(nodeCounts))
	for i := range nodeCounts {
		out.Metrics[i] = metrics[i*len(routers) : (i+1)*len(routers)]
	}
	return out, nil
}

// Render formats the grid as an aligned per-cell table of the
// headline fleet metrics. Cells run with the hardware profiler gain a
// bottleneck-class column.
func (g *ClusterGridResult) Render() string {
	hw := false
	for _, row := range g.Metrics {
		for _, m := range row {
			if m.HW != nil {
				hw = true
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d requests, %d tokens, batch %d/node, cache policy %s\n\n",
		g.Scenario.Name, len(g.Scenario.Requests), g.Scenario.TotalTokens(),
		g.Scenario.MaxBatch, g.Pol.Label)
	fmt.Fprintf(&b, "%-6s %-18s %12s %10s %10s %10s %10s %10s %10s %10s",
		"nodes", "router", "tok/kcycle", "makespan", "e2e-p50", "e2e-p95", "e2e-p99", "ttft-p95", "queue-p99", "imbalance")
	if hw {
		fmt.Fprintf(&b, "  %s", "bottleneck")
	}
	b.WriteByte('\n')
	for i, n := range g.NodeCounts {
		for j, r := range g.Routers {
			m := g.Metrics[i][j]
			fmt.Fprintf(&b, "%-6d %-18s %12.4f %10d %10.0f %10.0f %10.0f %10.0f %10.0f %10.3f",
				n, r.String(), m.FleetTokensPerKCycle, m.Makespan,
				m.E2ELatency.P50, m.E2ELatency.P95, m.E2ELatency.P99,
				m.TTFT.P95, m.QueueDelay.P99, m.LoadImbalance)
			if hw {
				class := "-"
				if m.HW != nil {
					class = m.HW.ClassName
				}
				fmt.Fprintf(&b, "  %s", class)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
