// Command cluster runs fleet-scale serving scenarios: an open-loop
// request stream dispatched by a router to N simulated nodes, each a
// full continuous-batching engine on its own cycle-level simulator.
// This is the production regime above cmd/serve — the question is no
// longer only how one accelerator behaves under batched decode
// traffic, but how routing policy spreads that traffic across a
// fleet, and how the answer interacts with the paper's cache
// arbitration/throttling policies running on every node.
//
//	cluster                                   # stock 16-request fleet, 5 routers × {1,2,4} nodes
//	cluster -nodes 8 -routers p2c,affinity    # narrower matrix
//	cluster -streams 32 -sessions 8 -rate 8000
//	cluster -policy dynmg+BMA -model mix -av  # cache policy / workload knobs
//	cluster -sched chunked -chunk 32 -routers ttft-pressure,least-outstanding
//	cluster -arrival burst:40000:0.25:6 -shed 400:3:20000:forward
//	cluster -rates 1,2,4 -nodes 2 -routers least-outstanding -shed 400 -slo-ttft 2000000
//	cluster -sched chunked -session-depth 3 -prefix-cache 4096 -routers affinity,prefix-affinity
//	cluster -sched chunked -session-depth 3 -prefix-caches 0,4096 -session-sweep 4,8 -nodes 2
//	cluster -faults crash:0:50000:150000,detect:5000 -nodes 2 -routers lot -slo-ttft 600000
//	cluster -fault-mtbfs 100000,300000 -fault-mttrs 50000 -fault-detect 5000 -nodes 4 -routers lot
//	cluster -json                             # machine-readable fleet metrics
//
// Workload flags (-streams, -sessions, -seqmin/-seqmax,
// -tokmin/-tokmax, -rate, -seed, -arrival) shape the fixed-seed
// request population and its arrival-rate shape (bursty, ramping,
// diurnal or trace-replayed modulation of the Poisson process);
// scheduler flags (-sched, -chunk, -kvcap, -preempt) select every
// node's prefill/decode co-scheduling policy, prefill chunk size,
// KV-capacity admission bound and recompute-on-preempt victim policy
// (the ttft-pressure router balances on the prefill backlog these
// schedulers create); -shed configures router-level overload control
// (per-node saturation threshold, retry cap, exponential backoff,
// optional least-loaded forwarding); SLO flags (-slo-ttft, -slo-tbt)
// set per-request deadlines and add goodput-under-SLO reports;
// -rates switches to the overload-grid mode — the workload is
// regenerated at each arrival-rate multiplier and swept against the
// overload combos built from -preempt/-shed, producing the
// goodput-vs-load curves; session flags (-session-depth,
// -prefix-cache) chain each session's requests into multi-turn
// conversations and give every node a capacity-bounded prefix cache so
// follow-up turns routed to the node holding their context skip
// re-prefilling it (the affinity and prefix-affinity routers exploit
// this); -prefix-caches switches to the prefix-grid mode — the
// workload is regenerated at each -session-sweep locality point and
// swept across cache capacities × -routers, producing the
// TTFT-vs-router curves of the prefix-reuse study; -faults injects a
// deterministic crash/straggler schedule into a single run (explicit
// crash:/slow: clauses or a gen: splitmix64 generator, detect:
// detection latency, redispatch/drop in-flight recovery, aware/blind
// routing) and -fault-mtbfs x -fault-mttrs switches to the
// fault-grid mode — each MTBF x MTTR regime is run twice, in-flight
// redispatch vs drop-on-failure, on one generated crash schedule
// (seeded by -seed, -fault-count crashes per node, -fault-detect
// detection latency), producing goodput-per-failure-regime tables;
// -nodes and -routers shape the evaluation matrix; -policy selects the cache-level
// (throttle+arbiter) policy every node runs; -scale divides the
// prompt-length range and the L2 size together, like every other
// harness; -stepcache selects the token-step fast path (on =
// signature memo shared across the fleet's nodes and the grid's
// cells, nomemo = no memoized replay, off = the naive reference
// pipeline); telemetry flags record the request lifecycle —
// -trace-out writes a Chrome trace-event JSON trace per cell
// (openable in Perfetto: router and nodes as processes, batch slots
// as threads, requests as flow-linked spans), -events-out a JSONL
// event log, -timeseries-out a CSV of per-node gauges sampled every
// -sample-every cycles; with more than one cell the paths need a %
// placeholder that expands to the cell label, and recording is
// bit-inert — metrics are identical with the flags on or off, and
// the files are byte-reproducible at any -parallel width (the
// events' memo-hit annotation shares the step-cache caveat below;
// -stepcache nomemo removes it);
// -hwprof attributes every node's per-step hardware-counter deltas to
// phase (prefill, decode, recompute after preempt/redispatch), to the
// co-scheduled streams and to -sample-every wall-clock buckets,
// classifies each node's bottleneck (memory-bound, compute-bound,
// stalled, idle) and prints the fleet profile report after the table
// (or to -hwprof-out; works in every grid mode, and hw counter tracks
// also flow into the telemetry exporters);
// -json switches the report from the aligned table to a
// JSON document of the full per-cell fleet metrics (TTFT percentiles
// included), one shape for every mode and for cmd/serve;
// -cpuprofile/-memprofile capture pprof profiles of the run. The
// flags shared with cmd/serve and their validation live in
// internal/cli. Runs are deterministic for a fixed flag set at any -parallel
// width (modulo the step-cache hit-rate diagnostics, which depend on
// fan-out timing).
package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serving"
)

func main() { cli.Main("cluster", run) }

// run runs the command on args and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	f := cli.New("cluster", 16, 4, 15000)
	nodes := f.String("nodes", "1,2,4", "comma-separated node counts to evaluate")
	routers := f.String("routers", "all", "comma-separated router policies (round-robin, least-outstanding, p2c, affinity, prefix-affinity, ttft-pressure) or 'all'")
	policy := f.String("policy", "dynmg+BMA", "cache policy every node runs (throttle+arbiter)")
	shed := f.String("shed", "off", "router overload control: off or SAT[:RETRIES[:BACKOFF[:forward]]] (saturation tokens, retry cap, backoff cycles)")
	faults := f.String("faults", "off", "node-failure schedule: off or comma-joined clauses crash:NODE:AT[:REJOIN], slow:NODE:FROM:TO:FACTOR, gen:SEED:MTBF:MTTR:COUNT, detect:CYCLES, drop|redispatch, blind|aware")
	rates := f.String("rates", "", "overload-grid mode: comma-separated arrival-rate multipliers (e.g. 1,2,4) swept against the -preempt/-shed combos")
	caches := f.String("prefix-caches", "", "prefix-grid mode: comma-separated per-node cache capacities (e.g. 0,4096) swept against -session-sweep and -routers")
	sessionSweep := f.String("session-sweep", "", "prefix-grid mode: comma-separated session counts (default: just -sessions)")
	mtbfs := f.String("fault-mtbfs", "", "fault-grid mode: comma-separated mean-time-between-failures values in cycles (needs -fault-mttrs)")
	mttrs := f.String("fault-mttrs", "", "fault-grid mode: comma-separated mean-time-to-repair values in cycles (needs -fault-mtbfs)")
	detect := f.Int64("fault-detect", 0, "fault-grid mode: failure-detection latency in cycles (>= 0)")
	count := f.Int("fault-count", 3, "fault-grid mode: crash incidents per generated schedule")
	return f.Run(args, func() error {
		s, err := f.Setup()
		if err != nil {
			return err
		}
		overload, err := cluster.ParseOverload(*shed)
		if err != nil {
			return err
		}
		faultCfg, err := cluster.ParseFaults(*faults)
		if err != nil {
			return err
		}
		nodeCounts, err := cli.ParseList[int]("-nodes", *nodes, false)
		if err != nil {
			return err
		}
		routerPols, err := parseRouters(*routers)
		if err != nil {
			return err
		}
		pol, err := experiments.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		if *sessionSweep != "" && *caches == "" {
			return fmt.Errorf("-session-sweep only applies to the -prefix-caches grid mode")
		}
		// -fault-mtbfs/-fault-mttrs come as a pair and select the fault-grid
		// mode; a single run's detection latency goes in the -faults spec.
		if (*mtbfs != "") != (*mttrs != "") {
			return fmt.Errorf("-fault-mtbfs and -fault-mttrs (fault-grid mode) come as a pair, got one without the other")
		}
		if (f.Passed("fault-detect") || f.Passed("fault-count")) && *mtbfs == "" {
			return fmt.Errorf("-fault-detect/-fault-count only apply to the -fault-mtbfs grid mode (a single run's detection latency goes in the -faults spec)")
		}
		// The three grid modes and an explicit -faults schedule exclude
		// each other, and each runs on a single fleet shape: fault node
		// indices are fleet-relative, and the grid modes sweep other axes.
		modes := []struct {
			flag, name   string
			on           bool
			singleRouter bool
		}{
			{"-rates", "overload-grid mode", *rates != "", true},
			{"-prefix-caches", "prefix-grid mode", *caches != "", false},
			{"-fault-mtbfs", "fault-grid mode", *mtbfs != "", true},
			{"-faults", "explicit fault schedule", faultCfg.Enabled(), false},
		}
		picked := -1
		for i, m := range modes {
			if !m.on {
				continue
			}
			if picked >= 0 {
				return fmt.Errorf("%s (%s) and %s (%s) select different modes, pick one",
					modes[picked].flag, modes[picked].name, m.flag, m.name)
			}
			picked = i
		}
		if picked >= 0 {
			m := modes[picked]
			if len(nodeCounts) != 1 {
				return fmt.Errorf("%s (%s) takes a single -nodes count, got %v", m.flag, m.name, nodeCounts)
			}
			if m.singleRouter && len(routerPols) != 1 {
				return fmt.Errorf("%s (%s) takes a single -routers policy, got %d", m.flag, m.name, len(routerPols))
			}
		}
		ccfg := cluster.ScenarioConfig{ScenarioConfig: s.Scenario, NumSessions: s.Scenario.NumSessions}
		// Every cell's coordinate starts with its fleet shape.
		at := func(nodes int, router cluster.Policy) cli.Axes {
			return cli.Axes{"policy": pol.Label, "nodes": nodes, "router": router.String()}
		}
		var table strings.Builder
		var doc *cli.Doc
		switch {
		case *rates != "":
			// Overload grid: one fleet shape swept across arrival-rate
			// multipliers x overload-control combos, reporting the
			// goodput-vs-load curves. The combo ladder is built from the
			// flags: the uncontrolled baseline, plus preemption (-preempt),
			// shedding (-shed) and their combination when both are set.
			rateList, err := cli.ParseList[float64]("-rates", *rates, false)
			if err != nil {
				return err
			}
			preempt := s.Scenario.Sched.Preempt
			combos := []experiments.OverloadCombo{{Label: "none"}}
			if preempt != serving.PreemptOff {
				combos = append(combos, experiments.OverloadCombo{Label: "preempt:" + preempt.String(), Preempt: preempt})
			}
			if overload.Enabled() {
				combos = append(combos, experiments.OverloadCombo{Label: "shed:" + overload.String(), Shed: overload})
				if preempt != serving.PreemptOff {
					combos = append(combos, experiments.OverloadCombo{Label: "preempt+shed", Preempt: preempt, Shed: overload})
				}
			}
			if len(combos) == 1 {
				return fmt.Errorf("-rates (overload-grid mode) needs -preempt and/or -shed to compare against the uncontrolled baseline")
			}
			grid, err := experiments.OverloadGrid(ccfg, rateList, combos, nodeCounts[0], routerPols[0], pol, s.SLO, s.Options)
			if err != nil {
				return err
			}
			table.WriteString(grid.Render())
			doc = s.Doc(true)
			for i, rate := range grid.Rates {
				for j, combo := range grid.Combos {
					a := at(grid.Nodes, grid.Router)
					a["rate"], a["combo"] = rate, combo.Label
					doc.AddFleet(a, grid.Cells[i][j].Metrics)
				}
			}
		case *caches != "":
			// Prefix grid: one fleet shape swept across session locality
			// (-session-sweep, defaulting to the single -sessions count) x
			// per-node prefix-cache capacity x router, reporting the
			// TTFT-vs-router curves of the prefix-reuse study.
			cacheList, err := cli.ParseList[int64]("-prefix-caches", *caches, true)
			if err != nil {
				return err
			}
			sessions := []int{ccfg.NumSessions}
			if *sessionSweep != "" {
				if sessions, err = cli.ParseList[int]("-session-sweep", *sessionSweep, false); err != nil {
					return err
				}
			}
			grid, err := experiments.PrefixGrid(ccfg, sessions, cacheList, routerPols, nodeCounts[0], pol, s.Options)
			if err != nil {
				return err
			}
			table.WriteString(grid.Render())
			doc = s.Doc(false)
			for i, n := range grid.Sessions {
				for j, c := range grid.Caches {
					for k, rt := range grid.Routers {
						a := at(grid.Nodes, rt)
						a["sessions"], a["cache_tokens"], a["session_depth"] = n, c, grid.Config.SessionDepth
						doc.AddFleet(a, grid.Cells[i][j][k].Metrics)
					}
				}
			}
		case *mtbfs != "":
			// Fault grid: one fleet shape swept across an MTBF x MTTR matrix
			// of generated failure regimes, each run under both recovery
			// policies (redispatch and drop), reporting goodput per regime.
			// The crash schedules are generated from -seed, with
			// -fault-count incidents per schedule and -fault-detect cycles
			// of detection latency.
			mtbfList, err := cli.ParseList[float64]("-fault-mtbfs", *mtbfs, false)
			if err != nil {
				return err
			}
			mttrList, err := cli.ParseList[float64]("-fault-mttrs", *mttrs, false)
			if err != nil {
				return err
			}
			if *detect < 0 {
				return fmt.Errorf("-fault-detect must be non-negative, got %d", *detect)
			}
			if *count <= 0 {
				return fmt.Errorf("-fault-count must be positive, got %d", *count)
			}
			grid, err := experiments.FaultGrid(ccfg, mtbfList, mttrList, ccfg.Seed, *count, *detect,
				nodeCounts[0], routerPols[0], pol, s.SLO, s.Options)
			if err != nil {
				return err
			}
			table.WriteString(grid.Render())
			doc = s.Doc(true)
			for i, mtbf := range grid.MTBFs {
				for j, mttr := range grid.MTTRs {
					add := func(recovery string, m *cluster.Metrics) {
						a := at(grid.Nodes, grid.Router)
						a["mtbf"], a["mttr"], a["recovery"] = mtbf, mttr, recovery
						a["seed"], a["fault_count"], a["detect_cycles"] = grid.Seed, grid.Count, grid.Detect
						doc.AddFleet(a, m)
					}
					add("redispatch", grid.Cells[i][j].Redispatch.Metrics)
					add("drop", grid.Cells[i][j].Drop.Metrics)
				}
			}
		default:
			scn, err := cluster.NewScenario(ccfg)
			if err != nil {
				return err
			}
			grid, err := experiments.ClusterGridFaulty(scn, nodeCounts, routerPols, pol, overload, faultCfg, s.Options)
			if err != nil {
				return err
			}
			table.WriteString(grid.Render())
			doc = s.Doc(s.SLO.Enabled())
			for i, n := range grid.NodeCounts {
				for j, r := range grid.Routers {
					doc.AddFleet(at(n, r), grid.Metrics[i][j])
				}
			}
			if s.SLO.Enabled() {
				for i, n := range grid.NodeCounts {
					for j, r := range grid.Routers {
						fmt.Fprintf(&table, "\ngoodput under SLO [nodes=%d %s]\n%s", n, r, grid.Metrics[i][j].Goodput(s.SLO))
					}
				}
			}
			// With no -hwprof-out the full per-cell fleet profile reports
			// follow the table (the grid runner wrote them to files
			// otherwise).
			if s.Options.HWProf.Enabled && s.Options.HWProfOut == "" {
				for i, n := range grid.NodeCounts {
					for j, r := range grid.Routers {
						if hw := grid.Metrics[i][j].HW; hw != nil {
							fmt.Fprintf(&table, "\n[nodes=%d %s]\n%s", n, r, hw.Render())
						}
					}
				}
			}
		}
		if f.JSON {
			return doc.Write(stdout)
		}
		_, err = io.WriteString(stdout, table.String())
		return err
	})
}

func parseRouters(list string) ([]cluster.Policy, error) {
	if list == "all" {
		return cluster.Policies(), nil
	}
	var out []cluster.Policy
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p, err := cluster.ParsePolicy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -routers list")
	}
	return out, nil
}
