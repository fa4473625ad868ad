// Package experiments reproduces every table and figure of the
// paper's evaluation (Section 6): the Fig. 7 throttling/arbitration/
// cumulative speedup panels, the Fig. 8 mechanism breakdown, the
// Fig. 9 cache-size sensitivity study, and the Section 6.1 hardware
// cost table. Each experiment renders the same rows/series the paper
// plots, normalised the same way.
//
// Experiments accept a Scale: sequence lengths and cache sizes are
// divided by it, preserving every working-set-to-cache ratio of the
// paper while shrinking simulation time. Scale 1 is paper scale.
package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/arbiter"
	"repro/internal/dataflow"
	"repro/internal/hwcost"
	"repro/internal/hwprof"
	"repro/internal/memtrace"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Scale divides the paper's sequence lengths and cache sizes.
	// 1 = paper scale; 8 keeps every WS/cache ratio with ~8x less
	// work; benches use larger scales still.
	Scale int
	// Log, when non-nil, receives one progress line per run.
	Log io.Writer
	// Base overrides the base system configuration (defaults to
	// sim.DefaultConfig / Table 5).
	Base *sim.Config
	// Parallel bounds how many independent simulations the figure
	// harnesses run concurrently (0 = GOMAXPROCS). Every Engine run is
	// single-threaded and deterministic, and results are collected in
	// matrix order, so the output is bit-identical at any setting.
	Parallel int
	// StepCache selects the serving/cluster token-step path for the
	// serving and cluster grids (default on). All cells of a grid share
	// the process-wide step memo, so overlapping cells — the same fleet
	// scenario across router policies or node counts — reuse each
	// other's simulated steps. Simulated metrics are bit-identical at
	// any setting.
	StepCache serving.StepCacheMode
	// Trace configures telemetry recording for every cell that
	// RunServeCells or RunClusterCells runs, i.e. every serving and
	// fleet grid: each cell runs with its own collector and writes its
	// own artifact files, `%` placeholders in the Spec paths expanded
	// to the cell's label. The runner validates the spec against its
	// cell count before the first cell starts. nil (or a Spec with no
	// output paths) disables recording — the cells run on the exact
	// bit-inert unrecorded paths. The single-operator figure harnesses
	// (RunCells) have no request lifecycle and ignore it.
	Trace *telemetry.Spec
	// HWProf configures hardware-counter attribution for every cell
	// that RunServeCells or RunClusterCells runs (see internal/hwprof):
	// every cell's engines capture per-step counter deltas, the cell
	// metrics carry the profiles, and the grid tables report each
	// cell's bottleneck class. The zero value disables it (bit-inert).
	// The single-operator figure harnesses ignore it, like Trace.
	HWProf hwprof.Spec
	// HWProfOut, when non-empty, writes each cell's rendered
	// ProfileReport to this path, `%` placeholders expanded to the
	// cell label exactly like the Trace paths. Ignored unless
	// HWProf.Enabled.
	HWProfOut string
}

func (o Options) scale() int {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) base() sim.Config {
	if o.Base != nil {
		return *o.Base
	}
	return sim.DefaultConfig()
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// cellConfig is one serving or fleet cell's simulator configuration:
// the cell's base override (else the grid's base), the L2 divided by
// Scale, and the cell's cache policy.
func (o Options) cellConfig(base *sim.Config, pol Policy) sim.Config {
	cfg := o.base()
	if base != nil {
		cfg = *base
	}
	cfg.L2SizeBytes /= o.scale()
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	return cfg
}

// checkOutputs validates the telemetry and -hwprof-out paths for a
// run of n cells before the first one starts: more than one cell
// needs a `%` placeholder, and every target directory must accept
// new files.
func (o Options) checkOutputs(n int) error {
	if err := o.Trace.Validate(n > 1); err != nil {
		return err
	}
	if !o.HWProf.Enabled {
		return nil
	}
	return telemetry.ValidateOutPath("-hwprof-out", o.HWProfOut, n > 1)
}

// writeArtifacts writes one finished cell's telemetry exports and,
// when HWProfOut is set and the cell was profiled (report non-nil),
// its rendered profile report.
func (o Options) writeArtifacts(label string, col *telemetry.Collector, report func() string) error {
	if col != nil {
		if err := o.Trace.Export(label, col); err != nil {
			return err
		}
	}
	if report == nil || o.HWProfOut == "" {
		return nil
	}
	if err := os.WriteFile(telemetry.CellPath(o.HWProfOut, label), []byte(report()), 0o644); err != nil {
		return fmt.Errorf("hwprof-out: %w", err)
	}
	return nil
}

// logMu serialises the progress lines of every runner's concurrent
// cells.
var logMu sync.Mutex

// logCell writes one cell's progress line to Log: the cell label, then
// its metrics summary. Callers check Log first, so a run without a log
// formats nothing.
func (o Options) logCell(label, summary string) {
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(o.Log, "%s %s\n", label, summary)
}

// Policy is one (throttle, arbiter) cell of the evaluation matrix.
type Policy struct {
	Label    string
	Throttle string
	Arbiter  arbiter.Kind
}

// The paper's policy set.
var (
	Unopt       = Policy{Label: "unopt", Throttle: "none", Arbiter: arbiter.FCFS}
	Dyncta      = Policy{Label: "dyncta", Throttle: "dyncta", Arbiter: arbiter.FCFS}
	LCS         = Policy{Label: "lcs", Throttle: "lcs", Arbiter: arbiter.FCFS}
	DynMG       = Policy{Label: "dynmg", Throttle: "dynmg", Arbiter: arbiter.FCFS}
	Cobrra      = Policy{Label: "cobrra", Throttle: "none", Arbiter: arbiter.COBRRA}
	DynMGCobrra = Policy{Label: "dynmg+cobrra", Throttle: "dynmg", Arbiter: arbiter.COBRRA}
	DynMGB      = Policy{Label: "dynmg+B", Throttle: "dynmg", Arbiter: arbiter.Balanced}
	DynMGMA     = Policy{Label: "dynmg+MA", Throttle: "dynmg", Arbiter: arbiter.MA}
	DynMGBMA    = Policy{Label: "dynmg+BMA", Throttle: "dynmg", Arbiter: arbiter.BMA}
)

// Runner executes simulation cells with trace caching (a trace
// depends only on the operator shape, not on the policy). Runners are
// safe for the concurrent use RunCells makes of them: the trace cache
// is mutex-guarded, progress lines go through the shared Options
// logger, and generated traces are read-only while simulations run.
type Runner struct {
	opts   Options
	mu     sync.Mutex
	traces map[string]*memtrace.Trace
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts, traces: make(map[string]*memtrace.Trace)}
}

// Trace returns (building on first use) the trace for an operator.
func (r *Runner) Trace(op workload.LogitOp) (*memtrace.Trace, error) {
	key := op.Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr, ok := r.traces[key]; ok {
		return tr, nil
	}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		return nil, err
	}
	mapping, _, err := dataflow.FindMapping(op, 64)
	if err != nil {
		return nil, err
	}
	blocks, err := dataflow.Generate(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		return nil, err
	}
	tr := memtrace.NewTrace(dataflow.TraceName(op.Name(), mapping), blocks)
	r.traces[key] = tr
	return tr, nil
}

// CellSpec names one simulation of an evaluation matrix.
type CellSpec struct {
	Op      workload.LogitOp
	Pol     Policy
	L2Bytes int // 0 = the base configuration's size
	// Base optionally overrides the Runner's base configuration for
	// this cell (parameter sweeps).
	Base *sim.Config
}

// RunCells executes every cell across a bounded worker pool
// (Options.Parallel wide) and returns the results in input order.
// Traces are generated once per distinct operator before the fan-out,
// then shared read-only across workers.
func (r *Runner) RunCells(cells []CellSpec) ([]sim.Result, error) {
	for i := range cells {
		if _, err := r.Trace(cells[i].Op); err != nil {
			return nil, err
		}
	}
	results := make([]sim.Result, len(cells))
	err := pool.ForEach(len(cells), r.opts.parallel(), func(i int) error {
		res, err := r.runCell(&cells[i])
		if err != nil {
			c := &cells[i]
			return fmt.Errorf("cell %s %s L2=%d: %w", c.Op.Name(), c.Pol.Label, c.L2Bytes, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func (r *Runner) runCell(c *CellSpec) (sim.Result, error) {
	tr, err := r.Trace(c.Op)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := r.opts.base()
	if c.Base != nil {
		cfg = *c.Base
	}
	cfg.Throttle = c.Pol.Throttle
	cfg.Arbiter = c.Pol.Arbiter
	if c.L2Bytes > 0 {
		cfg.L2SizeBytes = c.L2Bytes
	}
	eng, err := sim.New(cfg, tr, c.Op.Model.G)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := eng.Run()
	if err != nil {
		return sim.Result{}, err
	}
	if r.opts.Log != nil {
		r.opts.logCell(fmt.Sprintf("%-14s %-12s", c.Op.Name(), c.Pol.Label),
			fmt.Sprintf("L2=%-8d cycles=%-10d L2hit=%.3f mshrHit=%.3f util=%.3f tcs=%.3f bw=%.1fGB/s",
				cfg.L2SizeBytes, res.Cycles,
				res.Metrics.L2HitRate, res.Metrics.MSHRHitRate, res.Metrics.MSHREntryUtil,
				res.Metrics.CacheStallFrac, res.Metrics.DRAMBandwidthGB))
	}
	return res, nil
}

// Cell runs one (operator, policy, cache size) simulation.
func (r *Runner) Cell(op workload.LogitOp, pol Policy, l2Bytes int) (sim.Result, error) {
	return r.runCell(&CellSpec{Op: op, Pol: pol, L2Bytes: l2Bytes})
}

// seqLabel renders a sequence length the way the paper labels its x
// axes ("4K", "8K", ...), annotated with the scale when scaled.
func seqLabel(seq int) string {
	if seq%1024 == 0 {
		return fmt.Sprintf("%dK", seq/1024)
	}
	return fmt.Sprintf("%d", seq)
}

// Fig7Result holds the three panels of Fig. 7 for one model:
// throttling speedups vs unoptimized, arbitration speedups vs dynmg,
// and cumulative speedups vs unoptimized.
type Fig7Result struct {
	Model       workload.ModelConfig
	SeqLens     []int
	Throttling  []stats.Series // dyncta, lcs, dynmg          (vs unopt)
	Arbitration []stats.Series // cobrra, B, MA, BMA + dynmg  (vs dynmg)
	Cumulative  []stats.Series // dynmg, +B, +MA, +BMA        (vs unopt)
}

// RunFig7 reproduces Fig. 7(a–c) for Llama3-70B or (d–f) for
// Llama3-405B: sequence lengths {4K, 8K, 16K}/Scale on the Table 5
// system.
func RunFig7(model workload.ModelConfig, opts Options) (*Fig7Result, error) {
	s := opts.scale()
	seqs := []int{4096 / s, 8192 / s, 16384 / s}
	cfgBase := opts.base()
	cfgBase.L2SizeBytes /= s
	opts.Base = &cfgBase

	r := NewRunner(opts)
	out := &Fig7Result{Model: model, SeqLens: seqs}

	policies := []Policy{Unopt, Dyncta, LCS, DynMG, DynMGCobrra, DynMGB, DynMGMA, DynMGBMA}
	var cells []CellSpec
	for _, seq := range seqs {
		op := workload.LogitOp{Model: model, SeqLen: seq}
		for _, p := range policies {
			cells = append(cells, CellSpec{Op: op, Pol: p})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return nil, fmt.Errorf("fig7 %s: %w", model.Name, err)
	}
	cycles := make(map[string]map[int]int64) // label -> seq -> cycles
	for _, p := range policies {
		cycles[p.Label] = make(map[int]int64)
	}
	for i, c := range cells {
		cycles[c.Pol.Label][c.Op.SeqLen] = results[i].Cycles
	}

	series := func(label, base string) stats.Series {
		sr := stats.Series{Label: label}
		for _, seq := range seqs {
			sr.Points = append(sr.Points, stats.Point{
				X: seqLabel(seq * s),
				Y: stats.Speedup(cycles[base][seq], cycles[label][seq]),
			})
		}
		return sr
	}
	out.Throttling = []stats.Series{
		series("dyncta", "unopt"), series("lcs", "unopt"), series("dynmg", "unopt"),
	}
	out.Arbitration = []stats.Series{
		series("dynmg+cobrra", "dynmg"), series("dynmg+B", "dynmg"),
		series("dynmg+MA", "dynmg"), series("dynmg+BMA", "dynmg"),
	}
	out.Cumulative = []stats.Series{
		series("dynmg", "unopt"), series("dynmg+B", "unopt"),
		series("dynmg+MA", "unopt"), series("dynmg+BMA", "unopt"),
	}
	return out, nil
}

// Fig8Row is one policy's bar group in Fig. 8.
type Fig8Row struct {
	Policy        string
	RelPerf       float64 // performance normalised to unoptimized
	MSHREntryUtil float64
	L2HitRate     float64
	MSHRHitRate   float64
	DRAMBwGBs     float64
}

// RunFig8 reproduces the Fig. 8 mechanism comparison: Llama3-70B at
// 8K/Scale on the Table 5 system, all policies.
func RunFig8(opts Options) ([]Fig8Row, error) {
	s := opts.scale()
	cfgBase := opts.base()
	cfgBase.L2SizeBytes /= s
	opts.Base = &cfgBase
	r := NewRunner(opts)
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 8192 / s}

	policies := []Policy{Unopt, Dyncta, LCS, DynMG, DynMGB, DynMGMA, DynMGBMA}
	cells := make([]CellSpec, len(policies))
	for i, p := range policies {
		cells[i] = CellSpec{Op: op, Pol: p}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	var rows []Fig8Row
	var unoptCycles int64
	for i, p := range policies {
		res := results[i]
		if p.Label == "unopt" {
			unoptCycles = res.Cycles
		}
		rows = append(rows, Fig8Row{
			Policy:        p.Label,
			RelPerf:       stats.Speedup(unoptCycles, res.Cycles),
			MSHREntryUtil: res.Metrics.MSHREntryUtil,
			L2HitRate:     res.Metrics.L2HitRate,
			MSHRHitRate:   res.Metrics.MSHRHitRate,
			DRAMBwGBs:     res.Metrics.DRAMBandwidthGB,
		})
	}
	return rows, nil
}

// RenderFig8 formats the Fig. 8 rows as an aligned table.
func RenderFig8(rows []Fig8Row) string {
	out := fmt.Sprintf("%-14s %10s %10s %10s %10s %12s\n",
		"policy", "perf", "mshr-util", "L2-hit", "mshr-hit", "dram-GB/s")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %10.3f %10.3f %10.3f %10.3f %12.2f\n",
			r.Policy, r.RelPerf, r.MSHREntryUtil, r.L2HitRate, r.MSHRHitRate, r.DRAMBwGBs)
	}
	return out
}

// Fig9Result holds one model's cache-size sensitivity panel.
type Fig9Result struct {
	Model      workload.ModelConfig
	SeqLen     int
	CacheSizes []int
	// Series are normalised against unoptimized at the middle (32 MB)
	// cache size, exactly like the paper.
	Series []stats.Series
}

// RunFig9 reproduces Fig. 9: a 32K/Scale sequence across L2 sizes
// {16, 32, 64} MB / Scale, all throttling and arbitration policies,
// normalised to unoptimized at 32 MB/Scale.
func RunFig9(model workload.ModelConfig, opts Options) (*Fig9Result, error) {
	s := opts.scale()
	seq := 32768 / s
	caches := []int{16 << 20 / s, 32 << 20 / s, 64 << 20 / s}
	r := NewRunner(opts)
	op := workload.LogitOp{Model: model, SeqLen: seq}

	policies := []Policy{Unopt, Dyncta, LCS, Cobrra, DynMG, DynMGCobrra, DynMGBMA}
	var cells []CellSpec
	for _, c := range caches {
		for _, p := range policies {
			cells = append(cells, CellSpec{Op: op, Pol: p, L2Bytes: c})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return nil, fmt.Errorf("fig9 %s: %w", model.Name, err)
	}
	cycles := make(map[string]map[int]int64)
	for _, p := range policies {
		cycles[p.Label] = make(map[int]int64)
	}
	for i, c := range cells {
		cycles[c.Pol.Label][c.L2Bytes] = results[i].Cycles
	}
	base := cycles["unopt"][caches[1]] // unoptimized @ 32 MB/Scale
	out := &Fig9Result{Model: model, SeqLen: seq, CacheSizes: caches}
	for _, p := range policies {
		sr := stats.Series{Label: p.Label}
		for _, c := range caches {
			sr.Points = append(sr.Points, stats.Point{
				X: fmt.Sprintf("%dMB", c*s>>20),
				Y: stats.Speedup(base, cycles[p.Label][c]),
			})
		}
		out.Series = append(out.Series, sr)
	}
	return out, nil
}

// HWCostRow is one synthesized block of the Section 6.1 table.
type HWCostRow struct {
	Block    string
	AreaUm2  float64
	PaperUm2 float64
}

// RunHWCost evaluates the hardware cost model against the paper's
// synthesis results.
func RunHWCost() []HWCostRow {
	t := hwcost.FreePDK15()
	arb := hwcost.ArbiterArea(hwcost.DefaultArbiterParams(), t)
	hb := hwcost.HitBufferArea(hwcost.DefaultHitBufferParams(), t)
	return []HWCostRow{
		{Block: "arbiter (incl. request queue)", AreaUm2: arb.Total, PaperUm2: hwcost.PaperArbiterUm2},
		{Block: "hit buffer", AreaUm2: hb.Total, PaperUm2: hwcost.PaperHitBufferUm2},
	}
}

// RenderHWCost formats the hardware cost table.
func RenderHWCost(rows []HWCostRow) string {
	out := fmt.Sprintf("%-32s %14s %14s %8s\n", "block", "model µm²", "paper µm²", "delta")
	for _, r := range rows {
		delta := (r.AreaUm2 - r.PaperUm2) / r.PaperUm2 * 100
		out += fmt.Sprintf("%-32s %14.2f %14.2f %+7.1f%%\n", r.Block, r.AreaUm2, r.PaperUm2, delta)
	}
	return out
}

// IDs returns the known experiment identifiers in stable order.
func IDs() []string {
	ids := []string{"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig8", "fig9a", "fig9b", "hwcost"}
	sort.Strings(ids)
	return ids
}
