package cli

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/stats"
)

// Doc is the one -json document every serving command and mode writes
// (docs/EXPERIMENTS.md, "The -json document").
type Doc struct {
	Workload  string `json:"workload"`
	Requests  int    `json:"requests"`
	Scale     int    `json:"scale"`
	Scheduler string `json:"scheduler"`
	// SLO is present exactly when the cells carry goodput.
	SLO   *serving.SLO `json:"slo,omitempty"`
	Cells []Cell       `json:"cells"`
}

// Cell is one grid cell: its full coordinate, its metrics, every
// node's raw whole-run counter block in node order (one entry for a
// single engine), and its goodput under the document's SLO.
type Cell struct {
	Axes     Axes               `json:"axes"`
	Metrics  any                `json:"metrics"`
	Counters []stats.Counters   `json:"counters"`
	Goodput  *serving.SLOReport `json:"goodput,omitempty"`
}

// Axes names a cell's coordinate: policy, nodes, router, rate, combo,
// sessions, cache_tokens, mtbf, mttr, recovery and the like.
type Axes map[string]any

// Doc starts the -json document of a run of this setup; with goodput
// set, every cell is scored under the SLO.
func (s Setup) Doc(goodput bool) *Doc {
	d := &Doc{Workload: s.Scenario.Name, Requests: s.Scenario.NumRequests, Scale: s.Options.Scale,
		Scheduler: schedLabel(s.Scenario.Sched)}
	if goodput {
		d.SLO = &s.SLO
	}
	return d
}

// schedLabel names a scheduler configuration in the document:
// "decode-only", "prefill-first", "chunked/32", with a "/kv<N>" suffix
// when KV capacity is bounded.
func schedLabel(s serving.SchedulerConfig) string {
	label := s.Policy.String()
	if s.Policy == serving.SchedChunked {
		label = fmt.Sprintf("chunked/%d", s.ChunkTokens)
	}
	if s.KVCapTokens > 0 {
		label += fmt.Sprintf("/kv%d", s.KVCapTokens)
	}
	return label
}

// AddNode appends a single-engine cell.
func (d *Doc) AddNode(axes Axes, m *serving.Metrics) {
	c := Cell{Axes: axes, Metrics: m, Counters: []stats.Counters{m.Counters}}
	if d.SLO != nil {
		g := serving.Goodput(m, *d.SLO)
		c.Goodput = &g
	}
	d.Cells = append(d.Cells, c)
}

// AddFleet appends a fleet cell.
func (d *Doc) AddFleet(axes Axes, m *cluster.Metrics) {
	c := Cell{Axes: axes, Metrics: m, Counters: make([]stats.Counters, len(m.PerNode))}
	for i, nm := range m.PerNode {
		c.Counters[i] = nm.Counters
	}
	if d.SLO != nil {
		g := m.Goodput(*d.SLO)
		c.Goodput = &g
	}
	d.Cells = append(d.Cells, c)
}

// Write emits the document as indented JSON.
func (d *Doc) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
