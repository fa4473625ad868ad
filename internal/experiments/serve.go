// The serving-scenario grid: the serving engine run across the
// paper's throttle/arbiter policy matrix, the way RunFig7/8/9 run the
// single-operator cells. A serving cell is one complete
// continuous-batching scenario under one policy; cells are
// independent and deterministic, so the grid fans out across the same
// bounded worker pool as the figure harnesses with results in stable
// matrix order.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
)

// ServeCellSpec names one serving simulation: a scenario under a
// policy, optionally with a per-cell base configuration override.
// Every serving grid builds these cells and runs them through
// RunServeCells.
type ServeCellSpec struct {
	Scenario serving.Scenario
	Pol      Policy
	// Base optionally overrides the grid's base configuration for
	// this cell (hardware sweeps under serving load).
	Base *sim.Config
	// Label names the cell in its artifact paths, its profile report,
	// its errors and its progress line. Empty means
	// "<scenario>-<policy>".
	Label string
}

func (c *ServeCellSpec) label() string {
	if c.Label != "" {
		return c.Label
	}
	return c.Scenario.Name + "-" + c.Pol.Label
}

// RunServeCells executes every serving cell across the bounded worker
// pool (Options.Parallel wide) and returns the metrics in input
// order. It is the one runner behind every serving grid: it checks the
// telemetry and -hwprof-out paths against the cell count before the
// first cell starts, then writes each cell's artifacts and progress
// line. Options.Scale divides the L2 size exactly like the figure
// harnesses; prompt lengths are explicit in each Scenario, which the
// caller scales when building it. Unlike RunCells there is no shared
// trace cache: a serving run composes a fresh multi-stream trace per
// token step because the batch composition changes as requests are
// admitted and retired.
func RunServeCells(cells []ServeCellSpec, opts Options) ([]*serving.Metrics, error) {
	if err := opts.checkOutputs(len(cells)); err != nil {
		return nil, err
	}
	results := make([]*serving.Metrics, len(cells))
	err := pool.ForEach(len(cells), opts.parallel(), func(i int) error {
		c := &cells[i]
		label := c.label()
		ropts := serving.RunOptions{StepCache: opts.StepCache, HWProf: opts.HWProf}
		col := opts.Trace.Collector()
		if col != nil {
			// A serving cell is a 1-node fleet for trace purposes.
			ropts.Recorder = col.Node(0)
			ropts.SampleEvery = col.SampleEvery()
		}
		m, err := serving.RunWith(opts.cellConfig(c.Base, c.Pol), c.Scenario, ropts)
		if err == nil {
			var report func() string
			if m.HW != nil {
				report = func() string { return m.HW.Render(label) }
			}
			err = opts.writeArtifacts(label, col, report)
		}
		if err != nil {
			return fmt.Errorf("serve cell %s: %w", label, err)
		}
		if opts.Log != nil {
			opts.logCell(label, serveSummary(m))
		}
		results[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// serveSummary is a serving cell's progress-line metrics.
func serveSummary(m *serving.Metrics) string {
	return fmt.Sprintf("tokens=%d prefill=%d steps=%d makespan=%d tok/kcyc=%.4f p50=%.0f p99=%.0f ttft-p50=%.0f ttft-p99=%.0f preempt=%d pfx-rate=%.2f pfx-saved=%d memo=%d/%d resets=%d",
		m.Tokens, m.PrefillTokens, m.Steps, m.Makespan,
		m.TokensPerKCycle, m.TokenLatency.P50, m.TokenLatency.P99, m.TTFT.P50, m.TTFT.P99,
		m.Preemptions, m.PrefixHitRate, m.PrefillTokensSaved,
		m.StepCache.MemoHits, m.StepCache.MemoHits+m.StepCache.MemoMisses,
		m.StepCache.SimResets)
}

// ServeGridResult is one scenario evaluated across a policy list.
type ServeGridResult struct {
	Scenario serving.Scenario
	Policies []Policy
	Metrics  []*serving.Metrics // parallel to Policies
}

// ServeGrid runs one serving scenario across every policy in the
// matrix and collects the serving metrics per policy. The scenario's
// fixed-seed arrival process and the deterministic engine make every
// cell reproducible; the parallel fan-out preserves matrix order.
// Options.Scale divides the L2 size (see RunServeCells).
func ServeGrid(scn serving.Scenario, policies []Policy, opts Options) (*ServeGridResult, error) {
	cells := make([]ServeCellSpec, len(policies))
	for i, p := range policies {
		cells[i] = ServeCellSpec{Scenario: scn, Pol: p}
	}
	metrics, err := RunServeCells(cells, opts)
	if err != nil {
		return nil, err
	}
	return &ServeGridResult{Scenario: scn, Policies: policies, Metrics: metrics}, nil
}

// Render formats the grid as an aligned per-policy table of the
// headline serving metrics. Cells run with the hardware profiler gain
// a bottleneck-class column.
func (g *ServeGridResult) Render() string {
	hw := false
	for _, m := range g.Metrics {
		if m.HW != nil {
			hw = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d requests, %d tokens, batch %d\n\n",
		g.Scenario.Name, len(g.Scenario.Requests), g.Scenario.TotalTokens(), g.Scenario.MaxBatch)
	fmt.Fprintf(&b, "%-14s %12s %10s %10s %10s %10s %10s %10s %10s",
		"policy", "tok/kcycle", "makespan", "lat-p50", "lat-p95", "lat-p99", "ttft-p95", "queue-p99", "occupancy")
	if hw {
		fmt.Fprintf(&b, "  %s", "bottleneck")
	}
	b.WriteByte('\n')
	for i, p := range g.Policies {
		m := g.Metrics[i]
		fmt.Fprintf(&b, "%-14s %12.4f %10d %10.0f %10.0f %10.0f %10.0f %10.0f %10.2f",
			p.Label, m.TokensPerKCycle, m.Makespan,
			m.TokenLatency.P50, m.TokenLatency.P95, m.TokenLatency.P99,
			m.TTFT.P95, m.QueueDelay.P99, m.MeanBatchOccupancy)
		if hw {
			class := "-"
			if m.HW != nil {
				class = m.HW.ClassName
			}
			fmt.Fprintf(&b, "  %s", class)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
