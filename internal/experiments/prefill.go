// The prefill-scheduler grid: one serving scenario run across a
// scheduler × cache-policy matrix — decode-only vs prefill-first vs
// chunked at a sweep of chunk sizes — the harness that answers the
// chunked-prefill question (how chunk size trades time-to-first-token
// against decode interference) on the paper's simulated hardware.
// Cells are independent and deterministic, so the grid fans out across
// the shared bounded worker pool with results in stable matrix order.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/serving"
)

// SchedLabel names one scheduler configuration the way the grid
// renders it: "decode-only", "prefill-first", "chunked/32", with a
// "/kv<N>" suffix when KV capacity is bounded.
func SchedLabel(s serving.SchedulerConfig) string {
	label := s.Policy.String()
	if s.Policy == serving.SchedChunked {
		label = fmt.Sprintf("chunked/%d", s.ChunkTokens)
	}
	if s.KVCapTokens > 0 {
		label += fmt.Sprintf("/kv%d", s.KVCapTokens)
	}
	return label
}

// ChunkSweep builds the stock scheduler list of a chunk-size sweep:
// decode-only (the prefilled-elsewhere baseline), prefill-first (the
// monolithic schedule), and one chunked configuration per chunk size,
// all under the same KV capacity (0 = unlimited).
func ChunkSweep(chunks []int, kvcap int64) []serving.SchedulerConfig {
	out := []serving.SchedulerConfig{
		{Policy: serving.SchedDecodeOnly, KVCapTokens: kvcap},
		{Policy: serving.SchedPrefillFirst, KVCapTokens: kvcap},
	}
	for _, c := range chunks {
		out = append(out, serving.SchedulerConfig{
			Policy: serving.SchedChunked, ChunkTokens: c, KVCapTokens: kvcap,
		})
	}
	return out
}

// SchedGridResult is one scenario evaluated across a scheduler ×
// cache-policy matrix.
type SchedGridResult struct {
	Scenario serving.Scenario
	Scheds   []serving.SchedulerConfig
	Policies []Policy
	// Metrics[i][j] is Scheds[i] under Policies[j].
	Metrics [][]*serving.Metrics
}

// SchedGrid runs one serving scenario across every (scheduler, cache
// policy) cell of the matrix and collects the serving metrics in
// matrix order. The scenario's own Sched field is ignored — each cell
// substitutes its row's scheduler. Cells are labelled
// "<scenario>-<SchedLabel>-<policy>" for Options.Trace and
// Options.HWProfOut, so rows never overwrite each other's artifacts.
// Deterministic at any Options.Parallel; Options.Scale divides the L2
// size.
func SchedGrid(scn serving.Scenario, scheds []serving.SchedulerConfig, policies []Policy, opts Options) (*SchedGridResult, error) {
	if len(scheds) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("sched grid: empty scheduler or policy list")
	}
	cells := make([]ServeCellSpec, 0, len(scheds)*len(policies))
	for _, s := range scheds {
		row := scn
		row.Sched = s
		for _, p := range policies {
			cells = append(cells, ServeCellSpec{Scenario: row, Pol: p,
				Label: scn.Name + "-" + SchedLabel(s) + "-" + p.Label})
		}
	}
	metrics, err := RunServeCells(cells, opts)
	if err != nil {
		return nil, err
	}
	out := &SchedGridResult{Scenario: scn, Scheds: scheds, Policies: policies}
	out.Metrics = make([][]*serving.Metrics, len(scheds))
	for i := range scheds {
		out.Metrics[i] = metrics[i*len(policies) : (i+1)*len(policies)]
	}
	return out, nil
}

// Render formats the grid as an aligned per-cell table of the headline
// serving metrics, TTFT percentiles included.
func (g *SchedGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d requests, %d tokens, batch %d\n\n",
		g.Scenario.Name, len(g.Scenario.Requests), g.Scenario.TotalTokens(), g.Scenario.MaxBatch)
	fmt.Fprintf(&b, "%-18s %-14s %12s %10s %10s %10s %10s %10s %10s\n",
		"scheduler", "policy", "tok/kcycle", "makespan", "ttft-p50", "ttft-p95", "ttft-p99", "lat-p99", "queue-p99")
	for i, s := range g.Scheds {
		for j, p := range g.Policies {
			m := g.Metrics[i][j]
			fmt.Fprintf(&b, "%-18s %-14s %12.4f %10d %10.0f %10.0f %10.0f %10.0f %10.0f\n",
				SchedLabel(s), p.Label, m.TokensPerKCycle, m.Makespan,
				m.TTFT.P50, m.TTFT.P95, m.TTFT.P99,
				m.TokenLatency.P99, m.QueueDelay.P99)
		}
	}
	return b.String()
}
