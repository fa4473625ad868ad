package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hwprof"
	"repro/internal/memtrace"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is expected to move.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"sim.run_s", "s", "lower", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"sim.new_s", "s", "lower", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"sim.cycles", "count", "lower", "none: simulated output, must not change"},
	{"sim.simcycles_per_s", "1/s", "higher", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"sim.step_run_ms", "ms", "lower", "wall_rel on fleet-prefix and fleet-overload-grid"},
	{"sim.step_simcycles_per_s", "1/s", "higher", "wall_rel on fleet-prefix and fleet-overload-grid"},
	{"sim.reset_us", "us", "lower", "wall_rel on fleet-prefix and fleet-overload-grid"},
	{"sim.ff_speedup_cell", "x", "higher", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"sim.ff_speedup_step", "x", "higher", "wall_rel on fleet-prefix and fleet-overload-grid"},
	{"dataflow.trace_s", "s", "lower", "none predicted (about 0.1% of fig9's cold wall time)"},
	{"dataflow.compose_ms", "ms", "lower", "wall_rel on fleet-prefix and fleet-overload-grid"},
	{"serving.steps", "count", "lower", "wall_rel on the fleet workloads"},
	{"serving.distinct_steps", "count", "lower", "wall_rel on the fleet workloads"},
	{"serving.simulated_steps", "count", "lower", "wall_rel on the fleet workloads"},
	{"serving.replayed_frac", "fraction", "higher", "wall_rel on the fleet workloads"},
	{"serving.replay_us_per_step", "us", "lower", "warm_wall_rel on the fleet workloads"},
	{"serving.nomemo_wall_s", "s", "lower", "none: reference path, bounds wall_rel on fleet-prefix"},
	{"serving.off_wall_s", "s", "lower", "none: reference path, bounds wall_rel on fleet-prefix"},
	{"cluster.run_s_p50", "s", "lower", "wall_rel on fleet-overload-grid"},
	{"cluster.run_s_max", "s", "lower", "wall_rel on fleet-overload-grid"},
	{"cluster.fanout_speedup", "x", "higher", "wall_rel on fleet-prefix"},
	{"cluster.overhead_us", "us", "lower", "warm_wall_rel on the fleet workloads"},
	{"cluster.warm64_ms", "ms", "lower", "warm_wall_rel on fleet-overload-grid"},
	{"grid.efficiency", "fraction", "higher", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"grid.tail_s", "s", "lower", "wall_rel on fig9-cachesweep and fig7-mshr"},
	{"pool.foreach_ns_per_item", "ns", "lower", "none predicted (cells last seconds)"},
	{"telemetry.overhead_frac", "fraction", "lower", "none: observer off in every workload"},
	{"hwprof.overhead_frac", "fraction", "lower", "none: observer off in every workload"},
	{"trace.overhead_frac", "fraction", "lower", "none: the benchmark's own spans"},
}

// layerRun is the state of one traced run.
type layerRun struct {
	tr     *tracer
	root   int
	seed   uint64
	values map[string]float64
	ops    opCount
	// replayed and simulated count memo hits and misses over the cold
	// fleet calls.
	replayed, simulated int64
}

// op accounts one operation; it returns false (and records why) when
// err is non-nil.
func (l *layerRun) op(what string, err error) bool {
	l.ops.attempted++
	if err != nil {
		l.ops.failed++
		fmt.Fprintf(os.Stderr, "bench: trace: %s: %v\n", what, err)
		return false
	}
	return true
}

// same accounts an output check.
func (l *layerRun) same(what string, got, want []byte) {
	var err error
	if !bytes.Equal(got, want) {
		err = fmt.Errorf("output differs (fingerprint %s, want %s)", fingerprint(got), fingerprint(want))
	}
	l.op(what, err)
}

// committed accounts a check of a workload's canonical output against
// its committed fingerprint.
func (l *layerRun) committed(name string, canon []byte) {
	var err error
	if got, want := fingerprint(canon), fingerprints[name]; got != want {
		err = fmt.Errorf("fingerprint %s, committed %s", got, want)
	}
	l.op(name+" fingerprint", err)
}

// timed runs fn inside a span and returns its duration.
func (l *layerRun) timed(name string, parent int, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	err := l.tr.do(name, parent, fn)
	return time.Since(start), err
}

// runTraced is -trace: it measures every per-layer metric once, prints
// them, and writes the spans as Chrome trace-event JSON.
func runTraced(seed uint64, spanPath string) error {
	l := &layerRun{tr: newTracer(), seed: seed, values: make(map[string]float64)}
	var end func()
	l.root, end = l.tr.begin("bench.trace", -1)
	l.fixedStep()
	l.poolOverhead()
	l.ffCell()
	l.fig9()
	prefixSteps, prefixWarm := l.fleetPrefix()
	overloadSteps, overloadWarm := l.overloadGrid()
	if steps := prefixSteps + overloadSteps; steps > 0 {
		l.values["serving.replay_us_per_step"] = (prefixWarm + overloadWarm).Seconds() * 1e6 / float64(steps)
	}
	l.clusterOverhead()
	l.warm64()
	end()

	spans := l.tr.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		l.op("write spans", err)
	}
	ms := make(map[string]summary, len(layerMetrics))
	for _, m := range layerMetrics {
		v, ok := l.values[m.name]
		if !ok {
			l.op(m.name, fmt.Errorf("not measured"))
			continue
		}
		ms[m.name] = summarize(m.unit, []float64{v})
	}
	fmt.Printf("per-layer metrics (seed %d; spans in %s)\n", seed, spanPath)
	fmt.Printf("  %-28s %-8s %14s  %s\n", "metric", "unit", "value", "should move")
	for _, m := range layerMetrics {
		fmt.Printf("  %-28s %-8s %14.6g  %s\n", m.name, m.unit, ms[m.name].Median, m.moves)
	}
	fmt.Printf("span self time by name\n")
	self := selfByName(spans)
	for _, k := range sortedKeys(self) {
		fmt.Printf("  %-28s %12.6f s\n", k, self[k])
	}
	if err := printResult(&l.ops, ms); err != nil {
		return err
	}
	if l.ops.failed > 0 {
		return fmt.Errorf("%d operations failed", l.ops.failed)
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// fixedStep times the token-step path on one fixed step: four
// Llama3-70B decode streams at KV length 44 on the fleet hardware.
func (l *layerRun) fixedStep() {
	const reps = 15
	// Each stream fits one 4 MiB region, the serving stream alignment.
	const stride = 4 << 20
	streams := make([]serving.StreamState, 4)
	for i := range streams {
		streams[i] = serving.StreamState{Slot: i, Base: uint64(i) * stride, Model: workload.Llama3_70B, KVLen: 44}
	}
	cfg := fleetConfig()
	parent, end := l.tr.begin("step", l.root)
	defer end()

	var composes []time.Duration
	var trace *memtrace.Trace
	var group int
	for i := 0; i < reps; i++ {
		d, err := l.timed("dataflow.compose", parent, func(int) error {
			var err error
			trace, group, err = serving.ComposeStep(streams, false, cfg.LineBytes)
			return err
		})
		if !l.op("compose step", err) {
			return
		}
		composes = append(composes, d)
	}
	eng, err := sim.New(cfg, trace, group)
	if !l.op("step engine", err) {
		return
	}
	first, err := eng.Run()
	if !l.op("step run", err) {
		return
	}
	var resets, runs []time.Duration
	for i := 0; i < reps; i++ {
		d, err := l.timed("sim.reset", parent, func(int) error { return eng.Reset(trace, group) })
		if !l.op("step reset", err) {
			return
		}
		resets = append(resets, d)
		var res sim.Result
		d, err = l.timed("sim.run", parent, func(int) error {
			var err error
			res, err = eng.Run()
			return err
		})
		if err == nil && res.Cycles != first.Cycles {
			err = fmt.Errorf("cycles %d after reset, %d on a fresh engine", res.Cycles, first.Cycles)
		}
		if !l.op("step run after reset", err) {
			return
		}
		runs = append(runs, d)
	}
	refCfg := cfg
	refCfg.Reference = true
	var refs []time.Duration
	for i := 0; i < 3; i++ {
		ref, err := sim.New(refCfg, trace, group)
		if !l.op("reference step engine", err) {
			return
		}
		var res sim.Result
		d, err := l.timed("sim.run.reference", parent, func(int) error {
			var err error
			res, err = ref.Run()
			return err
		})
		if err == nil && res.Cycles != first.Cycles {
			err = fmt.Errorf("reference cycles %d, fast-forward %d", res.Cycles, first.Cycles)
		}
		if !l.op("reference step run", err) {
			return
		}
		refs = append(refs, d)
	}
	run := medianDur(runs)
	l.values["dataflow.compose_ms"] = medianDur(composes).Seconds() * 1e3
	l.values["sim.reset_us"] = medianDur(resets).Seconds() * 1e6
	l.values["sim.step_run_ms"] = run.Seconds() * 1e3
	l.values["sim.step_simcycles_per_s"] = float64(first.Cycles) / run.Seconds()
	l.values["sim.ff_speedup_step"] = medianDur(refs).Seconds() / run.Seconds()
}

// poolOverhead times the worker pool's per-item cost with a no-op body.
func (l *layerRun) poolOverhead() {
	const items = 1_000_000
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		d, err := l.timed("pool.foreach", l.root, func(int) error {
			return pool.ForEach(items, childProcs, func(int) error { return nil })
		})
		if !l.op("pool.ForEach", err) {
			return
		}
		ds = append(ds, d)
	}
	l.values["pool.foreach_ns_per_item"] = float64(medianDur(ds).Nanoseconds()) / items
}

// ffCell compares the reference loop against fast-forward on one fixed
// Fig. 9 cell: sequence 2048, L2 2 MB, dynmg+BMA.
func (l *layerRun) ffCell() {
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 2048}
	refBase := sim.DefaultConfig()
	refBase.Reference = true
	parent, end := l.tr.begin("ff_cell", l.root)
	defer end()
	var cycles [2]int64
	var ds [2]time.Duration
	for i, opts := range []experiments.Options{{}, {Base: &refBase}} {
		r := experiments.NewRunner(opts)
		if _, err := r.Trace(op); !l.op("ff cell trace", err) {
			return
		}
		name := []string{"sim.cell", "sim.cell.reference"}[i]
		d, err := l.timed(name, parent, func(int) error {
			res, err := r.Cell(op, experiments.DynMGBMA, 2<<20)
			cycles[i] = res.Cycles
			return err
		})
		if !l.op(name, err) {
			return
		}
		ds[i] = d
	}
	if !l.op("ff cell equivalence", cyclesEqual(cycles[0], cycles[1])) {
		return
	}
	l.values["sim.ff_speedup_cell"] = ds[1].Seconds() / ds[0].Seconds()
}

func cyclesEqual(a, b int64) error {
	if a != b {
		return fmt.Errorf("cycles %d vs %d", a, b)
	}
	return nil
}

// fig9 times the untraced figure in a fresh child, then mirrors its cell
// list with spans around each layer call: pool.ForEach → Runner.Trace →
// sim.New → Engine.Run. The mirror's cycles must reproduce the committed
// figure fingerprint bit for bit.
func (l *layerRun) fig9() {
	w, _ := findWorkload("fig9-cachesweep")
	var untraced sample
	l.tr.do("fig9.untraced_child", l.root, func(int) error {
		untraced = spawnChild(w, 0, 0, false)
		return nil
	})
	l.ops.attempted += untraced.Ops
	l.ops.failed += untraced.Failed
	for _, e := range untraced.Errors {
		fmt.Fprintf(os.Stderr, "bench: trace: fig9 child: %s\n", e)
	}

	const scale = figScale
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 32768 / scale}
	caches := []int{16 << 20 / scale, 32 << 20 / scale, 64 << 20 / scale}
	policies := []experiments.Policy{experiments.Unopt, experiments.Dyncta, experiments.LCS, experiments.Cobrra,
		experiments.DynMG, experiments.DynMGCobrra, experiments.DynMGBMA}
	type cell struct {
		pol experiments.Policy
		l2  int
	}
	var cells []cell
	for _, c := range caches {
		for _, p := range policies {
			cells = append(cells, cell{p, c})
		}
	}
	runner := experiments.NewRunner(experiments.Options{Scale: scale, Parallel: childProcs})
	cycles := make([]int64, len(cells))
	gridStart := len(l.tr.snapshot())
	wall, err := l.timed("fig9.grid", l.root, func(grid int) error {
		if err := l.tr.do("dataflow.trace", grid, func(int) error { _, err := runner.Trace(op); return err }); err != nil {
			return err
		}
		return pool.ForEach(len(cells), childProcs, func(i int) error {
			return l.tr.do("fig9.cell", grid, func(id int) error {
				tr, err := runner.Trace(op)
				if err != nil {
					return err
				}
				cfg := sim.DefaultConfig()
				cfg.Throttle, cfg.Arbiter, cfg.L2SizeBytes = cells[i].pol.Throttle, cells[i].pol.Arbiter, cells[i].l2
				var eng *sim.Engine
				if err := l.tr.do("sim.new", id, func(int) error {
					eng, err = sim.New(cfg, tr, op.Model.G)
					return err
				}); err != nil {
					return err
				}
				return l.tr.do("sim.run", id, func(int) error {
					res, err := eng.Run()
					cycles[i] = res.Cycles
					return err
				})
			})
		})
	})
	if !l.op("fig9 mirror", err) {
		return
	}
	byPol := make(map[string]map[int]int64)
	for i, c := range cells {
		if byPol[c.pol.Label] == nil {
			byPol[c.pol.Label] = make(map[int]int64)
		}
		byPol[c.pol.Label][c.l2] = cycles[i]
	}
	base := byPol[experiments.Unopt.Label][caches[1]]
	var series []stats.Series
	for _, p := range policies {
		s := stats.Series{Label: p.Label}
		for _, c := range caches {
			s.Points = append(s.Points, stats.Point{X: fmt.Sprintf("%dMB", c*scale>>20), Y: stats.Speedup(base, byPol[p.Label][c])})
		}
		series = append(series, s)
	}
	var canon bytes.Buffer
	canonSeries(&canon, "fig9", series)
	l.committed(w.name, canon.Bytes())

	spans := l.tr.snapshot()[gridStart:]
	var runS, newS, traceS, cellS float64
	var cellIv [][2]time.Duration
	for _, s := range spans {
		switch s.Name {
		case "sim.run":
			runS += s.dur().Seconds()
		case "sim.new":
			newS += s.dur().Seconds()
		case "dataflow.trace":
			traceS += s.dur().Seconds()
		case "fig9.cell":
			cellS += s.dur().Seconds()
			cellIv = append(cellIv, [2]time.Duration{s.Start, s.End})
		}
	}
	var total int64
	for _, c := range cycles {
		total += c
	}
	l.values["sim.run_s"] = runS
	l.values["sim.new_s"] = newS
	l.values["sim.cycles"] = float64(total)
	l.values["sim.simcycles_per_s"] = float64(total) / runS
	l.values["dataflow.trace_s"] = traceS
	l.values["grid.efficiency"] = cellS / (wall.Seconds() * childProcs)
	l.values["grid.tail_s"] = exactlyOne(cellIv).Seconds()
	if untraced.Failed == 0 && untraced.ColdS > 0 {
		l.values["trace.overhead_frac"] = wall.Seconds()/untraced.ColdS - 1
	}
}

// exactlyOne returns how long exactly one of the intervals is active:
// the time a two-worker grid runs on one worker.
func exactlyOne(iv [][2]time.Duration) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, x := range iv {
		edges = append(edges, edge{x[0], 1}, edge{x[1], -1})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta
	})
	var total time.Duration
	active := 0
	for i, e := range edges {
		if active == 1 && i > 0 {
			total += e.at - edges[i-1].at
		}
		active += e.delta
	}
	return total
}

// fleetPrefix runs the fleet-prefix call cold under every step-cache
// mode, width and observer, each from flushed process-wide caches, and
// checks all of them produce the same simulated metrics. It returns the
// call's step count and the median warm (all-replay) call time.
func (l *layerRun) fleetPrefix() (steps int64, warm time.Duration) {
	scn, err := prefixScenario(l.seed)
	if !l.op("prefix scenario", err) {
		return 0, 0
	}
	cfg := fleetConfig()
	aff := cluster.Policy{Kind: cluster.SessionAffinity}
	parent, end := l.tr.begin("fleet-prefix", l.root)
	defer end()
	var want []byte
	cold := func(name string, o cluster.Options) (*cluster.Metrics, time.Duration, bool) {
		serving.FlushSharedCaches()
		var m *cluster.Metrics
		d, err := l.timed(name, parent, func(int) error {
			var err error
			m, err = cluster.Run(cfg, scn, 2, aff, o)
			return err
		})
		if !l.op(name, err) {
			return nil, 0, false
		}
		return m, d, true
	}
	// check compares simulated metrics only: it drops the profile the
	// hwprof variant adds, and canonFleet drops the step-cache counters.
	check := func(name string, m *cluster.Metrics) {
		m.HW = nil
		for _, n := range m.PerNode {
			n.HW = nil
		}
		got, err := canonFleet(m)
		if !l.op(name+" output", err) {
			return
		}
		if want == nil {
			want = got
			if l.seed == 0 {
				l.committed("fleet-prefix", got)
			}
			return
		}
		l.same(name+" output", got, want)
	}

	memo := serving.NewStepMemo()
	on, base, ok := cold("cluster.run.cold", cluster.Options{Parallel: childProcs, Memo: memo})
	if !ok {
		return 0, 0
	}
	for _, n := range on.PerNode {
		steps += n.Steps
	}
	l.addSteps(steps, on.StepCache, int64(memo.Len()))
	check("cold", on)
	var warms []time.Duration
	for i := 0; i < 51; i++ {
		var m *cluster.Metrics
		d, err := l.timed("cluster.run.warm", parent, func(int) error {
			var err error
			m, err = cluster.Run(cfg, scn, 2, aff, cluster.Options{Parallel: childProcs, Memo: memo})
			return err
		})
		if !l.op("warm", err) {
			return 0, 0
		}
		if i == 0 {
			check("warm", m)
		}
		warms = append(warms, d)
	}
	// The overhead ratios compare against a second plain cold call made
	// later in the same process, not against the first call of the
	// process, which also pays for heap growth.
	variants := []struct {
		name, metric string
		opts         cluster.Options
	}{
		{"cluster.run.cold2", "", cluster.Options{Parallel: childProcs, Memo: serving.NewStepMemo()}},
		{"cluster.run.telemetry", "telemetry.overhead_frac", cluster.Options{Parallel: childProcs, Memo: serving.NewStepMemo(), Telemetry: telemetry.NewCollector(10000)}},
		{"cluster.run.hwprof", "hwprof.overhead_frac", cluster.Options{Parallel: childProcs, Memo: serving.NewStepMemo(), HWProf: hwprof.Spec{Enabled: true}}},
		{"cluster.run.width1", "cluster.fanout_speedup", cluster.Options{Parallel: 1, Memo: serving.NewStepMemo()}},
		{"cluster.run.nomemo", "serving.nomemo_wall_s", cluster.Options{Parallel: childProcs, StepCache: serving.StepCacheNoMemo}},
		{"cluster.run.off", "serving.off_wall_s", cluster.Options{Parallel: childProcs, StepCache: serving.StepCacheOff}},
	}
	for _, v := range variants {
		m, d, ok := cold(v.name, v.opts)
		if !ok {
			continue
		}
		check(v.name, m)
		switch v.metric {
		case "":
			base = d
		case "cluster.fanout_speedup":
			l.values[v.metric] = d.Seconds() / base.Seconds()
		case "serving.nomemo_wall_s", "serving.off_wall_s":
			l.values[v.metric] = d.Seconds()
		default:
			l.values[v.metric] = d.Seconds()/base.Seconds() - 1
		}
	}
	return steps, medianDur(warms)
}

// addSteps accumulates the step-path counters of one cold fleet call.
func (l *layerRun) addSteps(steps int64, st serving.StepCacheStats, distinct int64) {
	l.replayed += st.MemoHits
	l.simulated += st.MemoMisses
	l.values["serving.steps"] += float64(steps)
	l.values["serving.distinct_steps"] += float64(distinct)
	l.values["serving.simulated_steps"] = float64(l.simulated)
	l.values["serving.replayed_frac"] = float64(l.replayed) / float64(l.replayed+l.simulated)
}

// overloadGrid mirrors the fleet-overload-grid cell list with a span per
// cluster.Run (outer width 2, inner width 1, as the grid splits it),
// then runs the untraced grid warm and checks both agree. It returns
// the grid's step count and the median warm grid time.
func (l *layerRun) overloadGrid() (steps int64, warm time.Duration) {
	scn, ov, err := overloadScenario(l.seed)
	if !l.op("overload scenario", err) {
		return 0, 0
	}
	cfg := fleetConfig()
	type cell struct {
		nodes  int
		router cluster.Policy
	}
	var cells []cell
	for _, n := range []int{2, 4} {
		for _, r := range cluster.Policies() {
			cells = append(cells, cell{n, r})
		}
	}
	parent, end := l.tr.begin("fleet-overload-grid", l.root)
	defer end()
	serving.FlushSharedCaches()
	ms := make([]*cluster.Metrics, len(cells))
	durs := make([]float64, len(cells))
	err = l.tr.do("overload.grid", parent, func(grid int) error {
		return pool.ForEach(len(cells), childProcs, func(i int) error {
			start := time.Now()
			err := l.tr.do("cluster.run.cell", grid, func(int) error {
				var err error
				ms[i], err = cluster.Run(cfg, scn, cells[i].nodes, cells[i].router, cluster.Options{Parallel: 1, Overload: ov})
				return err
			})
			durs[i] = time.Since(start).Seconds()
			return err
		})
	})
	if !l.op("overload mirror", err) {
		return 0, 0
	}
	var st serving.StepCacheStats
	for _, m := range ms {
		st.Add(m.StepCache)
		for _, n := range m.PerNode {
			steps += n.Steps
		}
	}
	l.addSteps(steps, st, int64(serving.SharedStepMemo().Len()))
	l.values["cluster.run_s_p50"] = median(durs)
	l.values["cluster.run_s_max"] = sorted(durs)[len(durs)-1]
	mirror, err := canonFleet(ms...)
	if !l.op("overload mirror output", err) {
		return 0, 0
	}
	if l.seed == 0 {
		l.committed("fleet-overload-grid", mirror)
	}
	// The mirror filled the process-wide memo, so the grid runs warm;
	// its first call is the output check, untimed.
	c := overloadGridCall(scn, ov)
	var warms []time.Duration
	for i := 0; i < 12; i++ {
		var canon func() ([]byte, error)
		d, err := l.timed("experiments.grid", parent, func(int) error {
			var err error
			canon, err = safeCall(c, childProcs)
			return err
		})
		if !l.op("overload grid", err) {
			return 0, 0
		}
		if i == 0 {
			got, err := canon()
			if l.op("overload grid output", err) {
				l.same("overload grid vs mirror", got, mirror)
			}
			continue
		}
		warms = append(warms, d)
	}
	return steps, medianDur(warms)
}

// clusterOverhead is what the router layer adds to a warm single-node
// run: warm cluster.Run with 1 node and round-robin minus warm
// serving.RunWith on the same population and memo.
func (l *layerRun) clusterOverhead() {
	scn, err := prefixScenario(l.seed)
	if !l.op("prefix scenario", err) {
		return
	}
	cfg := fleetConfig()
	rr := cluster.Policy{Kind: cluster.RoundRobin}
	memo := serving.NewStepMemo()
	parent, end := l.tr.begin("cluster.overhead", l.root)
	defer end()
	_, err = l.timed("cluster.run.1node.cold", parent, func(int) error {
		_, err := cluster.Run(cfg, scn, 1, rr, cluster.Options{Memo: memo})
		return err
	})
	if !l.op("1-node cluster cold", err) {
		return
	}
	sscn := scn.ServingScenario()
	var cl, sv []time.Duration
	for i := 0; i < 51; i++ {
		d, err := l.timed("serving.run.warm", parent, func(int) error {
			_, err := serving.RunWith(cfg, sscn, serving.RunOptions{Memo: memo})
			return err
		})
		if !l.op("serving warm", err) {
			return
		}
		sv = append(sv, d)
		d, err = l.timed("cluster.run.1node.warm", parent, func(int) error {
			_, err := cluster.Run(cfg, scn, 1, rr, cluster.Options{Memo: memo})
			return err
		})
		if !l.op("1-node cluster warm", err) {
			return
		}
		cl = append(cl, d)
	}
	l.values["cluster.overhead_us"] = (medianDur(cl) - medianDur(sv)).Seconds() * 1e6
}

// warm64 times the overload population on 64 round-robin nodes, warm.
func (l *layerRun) warm64() {
	scn, ov, err := overloadScenario(l.seed)
	if !l.op("overload scenario", err) {
		return
	}
	cfg := fleetConfig()
	rr := cluster.Policy{Kind: cluster.RoundRobin}
	parent, end := l.tr.begin("cluster.64nodes", l.root)
	defer end()
	var ds []time.Duration
	for i := 0; i < 22; i++ {
		d, err := l.timed("cluster.run.64", parent, func(int) error {
			_, err := cluster.Run(cfg, scn, 64, rr, cluster.Options{Parallel: childProcs, Overload: ov})
			return err
		})
		if !l.op("64-node cluster", err) {
			return
		}
		if i > 0 { // the first call fills the memo
			ds = append(ds, d)
		}
	}
	l.values["cluster.warm64_ms"] = medianDur(ds).Seconds() * 1e3
}
