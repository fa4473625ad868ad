// The fault grid: availability-vs-recovery curves for the
// fault-tolerance study. One fleet workload is run under a matrix of
// generated failure regimes — MTBF × MTTR, each cell's crash schedule
// drawn deterministically from a fixed seed — and each regime is
// evaluated twice: recovering in-flight requests by redispatch versus
// dropping them with their node. Goodput-under-SLO per cell is the
// headline: as failures grow more frequent (MTBF down) or longer
// (MTTR up), the grid shows how much of the lost service each
// recovery policy buys back.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/serving"
)

// FaultCellResult is one cell's outcome: the full fleet metrics plus
// the goodput-under-SLO report.
type FaultCellResult struct {
	Metrics *cluster.Metrics
	Goodput serving.SLOReport
}

func recoveryLabel(f cluster.FaultConfig) string {
	if f.Drop {
		return "drop"
	}
	return "redispatch"
}

// FaultGridCell is one failure regime evaluated under both recovery
// policies.
type FaultGridCell struct {
	Redispatch FaultCellResult
	Drop       FaultCellResult
}

// FaultGridResult is one workload evaluated across an MTBF × MTTR
// matrix of generated failure regimes, each cell under both recovery
// policies.
type FaultGridResult struct {
	Config cluster.ScenarioConfig
	// MTBFs and MTTRs are the regime axes in cycles (mean time between
	// failures / mean time to repair of the generated schedules).
	MTBFs  []float64
	MTTRs  []float64
	Seed   uint64
	Count  int
	Detect int64
	Nodes  int
	Router cluster.Policy
	Pol    Policy
	SLO    serving.SLO
	// Cells[i][j] is MTBFs[i] × MTTRs[j].
	Cells [][]FaultGridCell
}

// FaultGrid sweeps MTBF × MTTR × recovery policy for one fleet
// workload: every regime's crash schedule is generated from the same
// seed (so the drop and redispatch runs of a cell face the identical
// failures), detection latency is held fixed, and goodput-under-SLO
// is collected per cell. Deterministic at any Options.Parallel.
func FaultGrid(cfg cluster.ScenarioConfig, mtbfs, mttrs []float64, seed uint64, count int, detect int64,
	nodes int, router cluster.Policy, pol Policy, slo serving.SLO, opts Options) (*FaultGridResult, error) {
	if len(mtbfs) == 0 || len(mttrs) == 0 {
		return nil, fmt.Errorf("fault grid: empty MTBF or MTTR list")
	}
	base, err := cluster.NewScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("fault grid %s: %w", cfg.Name, err)
	}
	cells := make([]ClusterCellSpec, 0, 2*len(mtbfs)*len(mttrs))
	for _, mtbf := range mtbfs {
		for _, mttr := range mttrs {
			// Every regime runs the same population; only the name
			// (and so the artifact labels) carries the regime.
			scn := base
			scn.Name = fmt.Sprintf("%s/mtbf%g-mttr%g", cfg.Name, mtbf, mttr)
			for _, drop := range []bool{false, true} {
				ft := cluster.FaultConfig{
					Gen:           &cluster.FaultGen{Seed: seed, MTBF: mtbf, MTTR: mttr, Count: count},
					DetectLatency: detect,
					Drop:          drop,
				}
				if err := ft.Validate(); err != nil {
					return nil, fmt.Errorf("fault grid mtbf=%g mttr=%g: %w", mtbf, mttr, err)
				}
				cells = append(cells, ClusterCellSpec{
					Scenario: scn, Nodes: nodes, Router: router, Pol: pol, Faults: ft,
					Label: fmt.Sprintf("%s-n%d-%s", scn.Name, nodes, recoveryLabel(ft)),
				})
			}
		}
	}
	metrics, err := RunClusterCells(cells, opts)
	if err != nil {
		return nil, err
	}
	results := make([]FaultCellResult, len(metrics))
	for i, m := range metrics {
		results[i] = FaultCellResult{Metrics: m, Goodput: m.Goodput(slo)}
	}
	out := &FaultGridResult{
		Config: cfg, MTBFs: mtbfs, MTTRs: mttrs, Seed: seed, Count: count, Detect: detect,
		Nodes: nodes, Router: router, Pol: pol, SLO: slo,
	}
	out.Cells = make([][]FaultGridCell, len(mtbfs))
	for i := range mtbfs {
		out.Cells[i] = make([]FaultGridCell, len(mttrs))
		for j := range mttrs {
			k := 2 * (i*len(mttrs) + j)
			out.Cells[i][j] = FaultGridCell{Redispatch: results[k], Drop: results[k+1]}
		}
	}
	return out, nil
}

// Render formats the grid as an aligned per-regime table comparing
// both recovery policies' goodput.
func (g *FaultGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d requests, %d nodes, router %s, cache policy %s, gen seed %d count %d detect %d, SLO ttft<=%d tbt<=%.0f\n\n",
		g.Config.Name, g.Config.NumRequests, g.Nodes, g.Router, g.Pol.Label,
		g.Seed, g.Count, g.Detect, g.SLO.TTFTCycles, g.SLO.TBTCycles)
	fmt.Fprintf(&b, "%-10s %-10s %8s %12s %12s %8s %8s %8s %10s\n",
		"mtbf", "mttr", "failures", "redispatch", "drop", "redisp", "dropped", "lost", "downtime")
	for i, mtbf := range g.MTBFs {
		for j, mttr := range g.MTTRs {
			c := g.Cells[i][j]
			re, dr := c.Redispatch.Metrics, c.Drop.Metrics
			fmt.Fprintf(&b, "%-10g %-10g %8d %12.4f %12.4f %8d %8d %8d %10d\n",
				mtbf, mttr, re.Failures,
				c.Redispatch.Goodput.GoodputPerKCycle, c.Drop.Goodput.GoodputPerKCycle,
				re.Redispatched, dr.Dropped, dr.LostTokens, re.DowntimeCycles)
		}
	}
	return b.String()
}
