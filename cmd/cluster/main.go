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
// included); -cpuprofile/-memprofile capture pprof profiles of the
// run. Runs are deterministic for a fixed flag set at any -parallel
// width (modulo the step-cache hit-rate diagnostics, which depend on
// fan-out timing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hwprof"
	"repro/internal/profiling"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cliOpts carries the parsed flag set into run. The *Set booleans
// record which optional flags were passed explicitly (main fills them
// via flag.Visit) so run can reject explicit zeroes without treating
// the defaults as errors — and stays unit-testable without a flag
// set.
type cliOpts struct {
	streams, sessions, batch       int
	sessionDepth                   int
	prefixCache                    int64
	prefixCaches, sessionSweep     string
	nodes, routers, policy, model  string
	seqmin, seqmax, tokmin, tokmax int
	rate                           float64
	seed                           uint64
	av                             bool
	scale                          int
	sched                          string
	chunk                          int
	kvcap                          int64
	arrival, preempt, shed, rates  string
	faults                         string
	faultMTBFs, faultMTTRs         string
	faultDetect                    int64
	faultCount                     int
	sloTTFT                        int64
	sloTBT                         float64
	sloTTFTSet, sloTBTSet          bool
	faultDetectSet, faultCountSet  bool
	parallel                       int
	verbose, jsonOut               bool
	stepcache                      string
	traceOut, eventsOut            string
	timeseriesOut                  string
	sampleEvery                    int64
	hwprof                         bool
	hwprofOut                      string
}

func main() {
	var o cliOpts
	flag.IntVar(&o.streams, "streams", 16, "number of decode requests in the fleet scenario")
	flag.IntVar(&o.sessions, "sessions", 4, "distinct sessions the requests are drawn from (0 = one per request)")
	flag.IntVar(&o.sessionDepth, "session-depth", 1, "turns per conversation: >1 chains session requests so follow-ups extend the previous turn's context")
	flag.Int64Var(&o.prefixCache, "prefix-cache", 0, "per-node session prefix-cache capacity in KV tokens (0 = off; needs a prefill -sched)")
	flag.StringVar(&o.prefixCaches, "prefix-caches", "", "prefix-grid mode: comma-separated per-node cache capacities (e.g. 0,4096) swept against -session-sweep and -routers")
	flag.StringVar(&o.sessionSweep, "session-sweep", "", "prefix-grid mode: comma-separated session counts (default: just -sessions)")
	flag.IntVar(&o.batch, "batch", 4, "per-node continuous-batching capacity")
	flag.StringVar(&o.nodes, "nodes", "1,2,4", "comma-separated node counts to evaluate")
	flag.StringVar(&o.routers, "routers", "all", "comma-separated router policies (round-robin, least-outstanding, p2c, affinity, prefix-affinity, ttft-pressure) or 'all'")
	flag.StringVar(&o.policy, "policy", "dynmg+BMA", "cache policy every node runs (throttle+arbiter)")
	flag.StringVar(&o.model, "model", "70b", "request model mix: 70b, 405b or mix")
	flag.IntVar(&o.seqmin, "seqmin", 0, "min prompt length (0 = 512/scale)")
	flag.IntVar(&o.seqmax, "seqmax", 0, "max prompt length (0 = 2048/scale)")
	flag.IntVar(&o.tokmin, "tokmin", 4, "min tokens decoded per request")
	flag.IntVar(&o.tokmax, "tokmax", 8, "max tokens decoded per request")
	flag.Float64Var(&o.rate, "rate", 15000, "mean inter-arrival gap in cycles (0 = all arrive at cycle 0)")
	flag.Uint64Var(&o.seed, "seed", 1, "arrival-process seed")
	flag.BoolVar(&o.av, "av", false, "append the AV operator to every token step")
	flag.IntVar(&o.scale, "scale", 8, "divide default prompt lengths and the L2 size by this factor")
	flag.StringVar(&o.sched, "sched", "decode-only", "prefill scheduler every node runs: decode-only, prefill-first or chunked")
	flag.IntVar(&o.chunk, "chunk", 32, "prefill chunk size in tokens (chunked scheduler only)")
	flag.Int64Var(&o.kvcap, "kvcap", 0, "per-node KV-cache capacity in tokens, gating admission (0 = unlimited)")
	flag.StringVar(&o.arrival, "arrival", "poisson", "arrival shape: poisson, burst:PERIOD:DUTY:FACTOR, ramp:PERIOD:FACTOR, diurnal:PERIOD:FACTOR or trace:PERIOD:M1,M2,...")
	flag.StringVar(&o.preempt, "preempt", "off", "per-node KV preemption victim policy: off, newest or fewest-tokens (needs a prefill -sched and -kvcap)")
	flag.StringVar(&o.shed, "shed", "off", "router overload control: off or SAT[:RETRIES[:BACKOFF[:forward]]] (saturation tokens, retry cap, backoff cycles)")
	flag.Int64Var(&o.sloTTFT, "slo-ttft", 0, "TTFT SLO deadline in cycles (0 = no TTFT deadline)")
	flag.Float64Var(&o.sloTBT, "slo-tbt", 0, "mean time-between-tokens SLO deadline in cycles (0 = no TBT deadline)")
	flag.StringVar(&o.rates, "rates", "", "overload-grid mode: comma-separated arrival-rate multipliers (e.g. 1,2,4) swept against the -preempt/-shed combos")
	flag.StringVar(&o.faults, "faults", "off", "node-failure schedule: off or comma-joined clauses crash:NODE:AT[:REJOIN], slow:NODE:FROM:TO:FACTOR, gen:SEED:MTBF:MTTR:COUNT, detect:CYCLES, drop|redispatch, blind|aware")
	flag.StringVar(&o.faultMTBFs, "fault-mtbfs", "", "fault-grid mode: comma-separated mean-time-between-failures values in cycles (needs -fault-mttrs)")
	flag.StringVar(&o.faultMTTRs, "fault-mttrs", "", "fault-grid mode: comma-separated mean-time-to-repair values in cycles (needs -fault-mtbfs)")
	flag.Int64Var(&o.faultDetect, "fault-detect", 0, "fault-grid mode: failure-detection latency in cycles (>= 0)")
	flag.IntVar(&o.faultCount, "fault-count", 3, "fault-grid mode: crash incidents per generated schedule")
	flag.IntVar(&o.parallel, "parallel", 0, "concurrent cells / node engines (0 = GOMAXPROCS)")
	flag.BoolVar(&o.verbose, "v", false, "stream per-cell progress to stderr")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON metrics instead of the table")
	flag.StringVar(&o.stepcache, "stepcache", "on", "token-step fast path: on, nomemo or off (the naive reference)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto) trace per cell; with >1 cell the path needs a % cell placeholder")
	flag.StringVar(&o.eventsOut, "events-out", "", "write a JSONL lifecycle-event log per cell (same % placeholder rule)")
	flag.StringVar(&o.timeseriesOut, "timeseries-out", "", "write a CSV gauge time series per cell (needs -sample-every; same % placeholder rule)")
	flag.Int64Var(&o.sampleEvery, "sample-every", 0, "sample per-node telemetry gauges every N cycles (0 = off; needs an output path)")
	flag.BoolVar(&o.hwprof, "hwprof", false, "attribute hardware counters per phase/request/bucket on every node and classify the bottleneck (-sample-every sets the bucket width)")
	flag.StringVar(&o.hwprofOut, "hwprof-out", "", "write the per-cell fleet hardware profile report to this file instead of stdout (needs -hwprof; same % placeholder rule)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	o.sloTTFTSet = flagSet("slo-ttft")
	o.sloTBTSet = flagSet("slo-tbt")
	o.faultDetectSet = flagSet("fault-detect")
	o.faultCountSet = flagSet("fault-count")

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}

	err = run(o)

	// Flush the profiles before the error exit below: os.Exit skips
	// defers, which would truncate them.
	stopCPU()
	if merr := profiling.WriteHeap(*memprofile); merr != nil {
		fmt.Fprintln(os.Stderr, "cluster:", merr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

// flagSet reports whether the named flag was passed explicitly, so a
// contradictory combination (-chunk without -sched chunked) or an
// explicit zero (-slo-ttft 0) errors instead of being silently
// treated as the default.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func modelMix(name string) ([]workload.ModelConfig, error) {
	switch name {
	case "70b":
		return []workload.ModelConfig{workload.Llama3_70B}, nil
	case "405b":
		return []workload.ModelConfig{workload.Llama3_405B}, nil
	case "mix":
		return []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B}, nil
	}
	return nil, fmt.Errorf("unknown model mix %q", name)
}

// parseNodes reads the -nodes list, rejecting non-positive counts up
// front — a zero node count would otherwise surface as a deep
// simulator error (or, with a naive modulo router, a panic).
func parseNodes(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("invalid -nodes entry %q: %v", s, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-nodes entries must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -nodes list")
	}
	return out, nil
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

// parseRates reads the -rates multiplier list of the overload-grid
// mode, rejecting non-positive multipliers up front.
func parseRates(list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -rates entry %q: %v", s, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; a NaN multiplier would slip
		// past a plain r <= 0 check (NaN comparisons are all false) and an
		// infinite one would zero every inter-arrival gap downstream.
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return nil, fmt.Errorf("-rates entries must be positive and finite, got %v", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -rates list")
	}
	return out, nil
}

// parseCaches reads the -prefix-caches capacity list of the
// prefix-grid mode. Zero entries are allowed — they are the cache-off
// baseline column — but negatives are rejected up front.
func parseCaches(list string) ([]int64, error) {
	var out []int64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		c, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -prefix-caches entry %q: %v", s, err)
		}
		if c < 0 {
			return nil, fmt.Errorf("-prefix-caches entries must be non-negative, got %d", c)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -prefix-caches list")
	}
	return out, nil
}

// parseSessionSweep reads the -session-sweep session-count list of the
// prefix-grid mode.
func parseSessionSweep(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("invalid -session-sweep entry %q: %v", s, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-session-sweep entries must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -session-sweep list")
	}
	return out, nil
}

func run(o cliOpts) error {
	mode, err := serving.ParseStepCacheMode(o.stepcache)
	if err != nil {
		return err
	}
	schedPol, err := serving.ParseSchedPolicy(o.sched)
	if err != nil {
		return err
	}
	preemptPol, err := serving.ParsePreemptPolicy(o.preempt)
	if err != nil {
		return err
	}
	arrival, err := serving.ParseArrival(o.arrival)
	if err != nil {
		return err
	}
	overload, err := cluster.ParseOverload(o.shed)
	if err != nil {
		return err
	}
	faults, err := cluster.ParseFaults(o.faults)
	if err != nil {
		return err
	}
	// Validate the workload shape up front with flag-level messages
	// instead of letting a deep generator or engine error (or hang)
	// report it. An SLO deadline flag passed explicitly must be
	// positive — an explicit zero is a contradiction (asking for a
	// deadline and disabling it at once), not a disabled deadline.
	switch {
	case o.streams <= 0:
		return fmt.Errorf("-streams must be positive, got %d", o.streams)
	case o.batch <= 0:
		return fmt.Errorf("-batch must be positive, got %d", o.batch)
	case o.sessions < 0:
		return fmt.Errorf("-sessions must be non-negative, got %d", o.sessions)
	case o.sessionDepth < 0:
		return fmt.Errorf("-session-depth must be non-negative, got %d", o.sessionDepth)
	case o.prefixCache < 0:
		return fmt.Errorf("-prefix-cache must be non-negative, got %d", o.prefixCache)
	case o.tokmin <= 0 || o.tokmax < o.tokmin:
		return fmt.Errorf("decode range [-tokmin %d, -tokmax %d] invalid", o.tokmin, o.tokmax)
	case o.rate < 0 || math.IsNaN(o.rate) || math.IsInf(o.rate, 0):
		return fmt.Errorf("-rate must be non-negative and finite, got %v", o.rate)
	case o.kvcap < 0:
		return fmt.Errorf("-kvcap must be non-negative, got %d", o.kvcap)
	case o.sloTTFT < 0 || (o.sloTTFTSet && o.sloTTFT == 0):
		return fmt.Errorf("-slo-ttft must be a positive cycle deadline, got %d", o.sloTTFT)
	case o.sloTBT < 0 || (o.sloTBTSet && o.sloTBT == 0):
		return fmt.Errorf("-slo-tbt must be a positive cycle deadline, got %v", o.sloTBT)
	}
	slo := serving.SLO{TTFTCycles: o.sloTTFT, TBTCycles: o.sloTBT}
	sched := serving.SchedulerConfig{Policy: schedPol, KVCapTokens: o.kvcap, Preempt: preemptPol,
		PrefixCacheTokens: o.prefixCache}
	if schedPol == serving.SchedChunked {
		sched.ChunkTokens = o.chunk
	} else if flagSet("chunk") {
		return fmt.Errorf("-chunk only applies to -sched chunked (got -sched %s)", schedPol)
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if o.scale <= 0 {
		o.scale = 1
	}
	nodeCounts, err := parseNodes(o.nodes)
	if err != nil {
		return err
	}
	routerPols, err := parseRouters(o.routers)
	if err != nil {
		return err
	}
	pol, err := llamcat.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	models, err := modelMix(o.model)
	if err != nil {
		return err
	}
	// Computed defaults clamp to the mapping floor like
	// cluster.DefaultScenario; explicit values are validated as given.
	if o.seqmin == 0 {
		if o.seqmin = 512 / o.scale; o.seqmin < 16 {
			o.seqmin = 16
		}
	}
	if o.seqmax == 0 {
		if o.seqmax = 2048 / o.scale; o.seqmax < o.seqmin {
			o.seqmax = o.seqmin
		}
	}
	ccfg := cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name:             fmt.Sprintf("%s/%dreq/seed%d", o.model, o.streams, o.seed),
			Seed:             o.seed,
			NumRequests:      o.streams,
			Models:           models,
			MinPromptLen:     o.seqmin,
			MaxPromptLen:     o.seqmax,
			MinDecode:        o.tokmin,
			MaxDecode:        o.tokmax,
			MeanInterArrival: o.rate,
			Arrival:          arrival,
			MaxBatch:         o.batch,
			IncludeAV:        o.av,
			SessionDepth:     o.sessionDepth,
			Sched:            sched,
		},
		NumSessions: o.sessions,
	}

	base := sim.DefaultConfig()
	cachePol := experiments.Policy{Label: o.policy, Throttle: pol.Throttle, Arbiter: pol.Arbiter}
	// The grid runner validates the telemetry and -hwprof-out paths
	// against its cell count before any simulation. -hwprof consumes
	// the -sample-every grid directly (bucketed utilization), so
	// sampling without a telemetry output path is legal when profiling
	// is on.
	trace := &telemetry.Spec{TraceOut: o.traceOut, EventsOut: o.eventsOut, TimeseriesOut: o.timeseriesOut,
		SampleEvery: o.sampleEvery, AllowBareSampling: o.hwprof}
	if o.hwprofOut != "" && !o.hwprof {
		return fmt.Errorf("-hwprof-out needs -hwprof")
	}
	opts := experiments.Options{Base: &base, Scale: o.scale, Parallel: o.parallel, StepCache: mode, Trace: trace,
		HWProf: hwprof.Spec{Enabled: o.hwprof, SampleEvery: o.sampleEvery}, HWProfOut: o.hwprofOut}
	if o.verbose {
		opts.Log = os.Stderr
	}

	if o.sessionSweep != "" && o.prefixCaches == "" {
		return fmt.Errorf("-session-sweep only applies to the -prefix-caches grid mode")
	}
	// -fault-mtbfs/-fault-mttrs come as a pair and select the fault-grid
	// mode; a single run's detection latency goes in the -faults spec.
	if (o.faultMTBFs != "") != (o.faultMTTRs != "") {
		return fmt.Errorf("-fault-mtbfs and -fault-mttrs (fault-grid mode) come as a pair, got one without the other")
	}
	if (o.faultDetectSet || o.faultCountSet) && o.faultMTBFs == "" {
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
		{"-rates", "overload-grid mode", o.rates != "", true},
		{"-prefix-caches", "prefix-grid mode", o.prefixCaches != "", false},
		{"-fault-mtbfs", "fault-grid mode", o.faultMTBFs != "", true},
		{"-faults", "explicit fault schedule", faults.Enabled(), false},
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
	if o.rates != "" {
		return runOverloadGrid(o, ccfg, nodeCounts[0], routerPols[0], cachePol, preemptPol, overload, slo, opts)
	}
	if o.prefixCaches != "" {
		return runPrefixGrid(o, ccfg, nodeCounts[0], routerPols, cachePol, opts)
	}
	if o.faultMTBFs != "" {
		return runFaultGrid(o, ccfg, nodeCounts[0], routerPols[0], cachePol, slo, opts)
	}

	scn, err := cluster.NewScenario(ccfg)
	if err != nil {
		return err
	}
	grid, err := experiments.ClusterGridFaulty(scn, nodeCounts, routerPols, cachePol, overload, faults, opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return writeJSON(grid, sched, o.scale, slo)
	}
	fmt.Print(grid.Render())
	if slo.Enabled() {
		for i, n := range grid.NodeCounts {
			for j, r := range grid.Routers {
				fmt.Printf("\ngoodput under SLO [nodes=%d %s]\n%s", n, r, grid.Metrics[i][j].Goodput(slo))
			}
		}
	}
	// With no -hwprof-out the full per-cell fleet profile reports
	// follow the table on stdout (the grid runner wrote them to files
	// otherwise).
	if o.hwprof && o.hwprofOut == "" {
		for i, n := range grid.NodeCounts {
			for j, r := range grid.Routers {
				if hw := grid.Metrics[i][j].HW; hw != nil {
					fmt.Printf("\n[nodes=%d %s]\n%s", n, r, hw.Render())
				}
			}
		}
	}
	return nil
}

// runOverloadGrid is the -rates mode: one fleet shape swept across
// arrival-rate multipliers × overload-control combos, reporting the
// goodput-vs-load curves. The combo ladder is built from the flags:
// the uncontrolled baseline, plus preemption (-preempt), shedding
// (-shed) and their combination when both are set.
func runOverloadGrid(o cliOpts, ccfg cluster.ScenarioConfig, nodes int, router cluster.Policy,
	cachePol experiments.Policy, preemptPol serving.PreemptPolicy, overload cluster.OverloadConfig,
	slo serving.SLO, opts experiments.Options) error {
	rates, err := parseRates(o.rates)
	if err != nil {
		return err
	}
	combos := []experiments.OverloadCombo{{Label: "none"}}
	if preemptPol != serving.PreemptOff {
		combos = append(combos, experiments.OverloadCombo{Label: "preempt:" + preemptPol.String(), Preempt: preemptPol})
	}
	if overload.Enabled() {
		combos = append(combos, experiments.OverloadCombo{Label: "shed:" + overload.String(), Shed: overload})
		if preemptPol != serving.PreemptOff {
			combos = append(combos, experiments.OverloadCombo{Label: "preempt+shed", Preempt: preemptPol, Shed: overload})
		}
	}
	if len(combos) == 1 {
		return fmt.Errorf("-rates (overload-grid mode) needs -preempt and/or -shed to compare against the uncontrolled baseline")
	}
	grid, err := experiments.OverloadGrid(ccfg, rates, combos, nodes, router, cachePol, slo, opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return writeOverloadJSON(grid, o.scale)
	}
	fmt.Print(grid.Render())
	return nil
}

// runFaultGrid is the -fault-mtbfs/-fault-mttrs mode: one fleet shape
// swept across an MTBF × MTTR matrix of generated failure regimes,
// each cell run under both recovery policies (redispatch and drop),
// reporting goodput per regime. The crash schedules are generated from
// -seed, with -fault-count incidents per schedule and -fault-detect
// cycles of detection latency.
func runFaultGrid(o cliOpts, ccfg cluster.ScenarioConfig, nodes int, router cluster.Policy,
	cachePol experiments.Policy, slo serving.SLO, opts experiments.Options) error {
	mtbfs, err := parseFaultTimes("-fault-mtbfs", o.faultMTBFs)
	if err != nil {
		return err
	}
	mttrs, err := parseFaultTimes("-fault-mttrs", o.faultMTTRs)
	if err != nil {
		return err
	}
	if o.faultDetect < 0 {
		return fmt.Errorf("-fault-detect must be non-negative, got %d", o.faultDetect)
	}
	if o.faultCount <= 0 {
		return fmt.Errorf("-fault-count must be positive, got %d", o.faultCount)
	}
	grid, err := experiments.FaultGrid(ccfg, mtbfs, mttrs, o.seed, o.faultCount, o.faultDetect,
		nodes, router, cachePol, slo, opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return writeFaultJSON(grid, o.scale)
	}
	fmt.Print(grid.Render())
	return nil
}

// parseFaultTimes reads one of the fault-grid time axes, rejecting
// non-positive and non-finite values up front (like parseRates, a NaN
// would slip past a plain <= 0 check).
func parseFaultTimes(name, list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid %s entry %q: %v", name, s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("%s entries must be positive and finite, got %v", name, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", name)
	}
	return out, nil
}

// runPrefixGrid is the -prefix-caches mode: one fleet shape swept
// across session locality (-session-sweep, defaulting to the single
// -sessions count) × per-node prefix-cache capacity × router,
// reporting the TTFT-vs-router curves of the prefix-reuse study. Each
// cell regenerates the workload at its session count, so the same seed
// explores the same population at every locality point.
func runPrefixGrid(o cliOpts, ccfg cluster.ScenarioConfig, nodes int, routerPols []cluster.Policy,
	cachePol experiments.Policy, opts experiments.Options) error {
	caches, err := parseCaches(o.prefixCaches)
	if err != nil {
		return err
	}
	sessions := []int{o.sessions}
	if o.sessionSweep != "" {
		if sessions, err = parseSessionSweep(o.sessionSweep); err != nil {
			return err
		}
	}
	grid, err := experiments.PrefixGrid(ccfg, sessions, caches, routerPols, nodes, cachePol, opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return writePrefixJSON(grid, o.scale)
	}
	fmt.Print(grid.Render())
	return nil
}

// jsonCell is one (node count, router) cell of the -json document.
type jsonCell struct {
	Nodes   int              `json:"nodes"`
	Router  string           `json:"router"`
	Metrics *cluster.Metrics `json:"metrics"`
	// Counters re-exports every node's raw whole-run hardware counters
	// at the top level, node order, so scripts consuming profiles read
	// them without digging through the nested per-node metrics.
	Counters []stats.Counters `json:"counters"`
	// Goodput is present when an SLO deadline was set.
	Goodput *serving.SLOReport `json:"goodput,omitempty"`
}

// perNodeCounters extracts the raw per-node counter blocks of a fleet
// run in node order — the scriptable profile block every -json writer
// attaches to its cells.
func perNodeCounters(m *cluster.Metrics) []stats.Counters {
	out := make([]stats.Counters, len(m.PerNode))
	for i, nm := range m.PerNode {
		out[i] = nm.Counters
	}
	return out
}

// jsonDoc is the -json report: the scenario identity plus every
// cell's full fleet metrics (TTFT percentiles included).
type jsonDoc struct {
	Scenario  string     `json:"scenario"`
	Requests  int        `json:"requests"`
	Scale     int        `json:"scale"`
	Scheduler string     `json:"scheduler"`
	Policy    string     `json:"policy"`
	Cells     []jsonCell `json:"cells"`
}

// writeJSON emits the grid as an indented JSON document on stdout.
func writeJSON(grid *experiments.ClusterGridResult, sched serving.SchedulerConfig, scale int, slo serving.SLO) error {
	doc := jsonDoc{
		Scenario:  grid.Scenario.Name,
		Requests:  len(grid.Scenario.Requests),
		Scale:     scale,
		Scheduler: experiments.SchedLabel(sched),
		Policy:    grid.Pol.Label,
	}
	for i, n := range grid.NodeCounts {
		for j, r := range grid.Routers {
			cell := jsonCell{Nodes: n, Router: r.String(), Metrics: grid.Metrics[i][j],
				Counters: perNodeCounters(grid.Metrics[i][j])}
			if slo.Enabled() {
				rep := grid.Metrics[i][j].Goodput(slo)
				cell.Goodput = &rep
			}
			doc.Cells = append(doc.Cells, cell)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// prefixJSONCell is one (sessions, cache, router) cell of the
// prefix-grid -json document.
type prefixJSONCell struct {
	Sessions int              `json:"sessions"`
	Cache    int64            `json:"cache_tokens"`
	Router   string           `json:"router"`
	Metrics  *cluster.Metrics `json:"metrics"`
	// Counters is every node's raw whole-run counter block, node order.
	Counters []stats.Counters `json:"counters"`
}

// prefixJSONDoc is the prefix-grid -json report.
type prefixJSONDoc struct {
	Workload     string           `json:"workload"`
	Nodes        int              `json:"nodes"`
	SessionDepth int              `json:"session_depth"`
	Policy       string           `json:"policy"`
	Scale        int              `json:"scale"`
	Cells        []prefixJSONCell `json:"cells"`
}

// writePrefixJSON emits the prefix grid as an indented JSON document
// on stdout.
func writePrefixJSON(grid *experiments.PrefixGridResult, scale int) error {
	doc := prefixJSONDoc{
		Workload:     grid.Config.Name,
		Nodes:        grid.Nodes,
		SessionDepth: grid.Config.SessionDepth,
		Policy:       grid.Pol.Label,
		Scale:        scale,
	}
	for i, s := range grid.Sessions {
		for j, c := range grid.Caches {
			for k, rt := range grid.Routers {
				doc.Cells = append(doc.Cells, prefixJSONCell{
					Sessions: s, Cache: c, Router: rt.String(),
					Metrics:  grid.Cells[i][j][k].Metrics,
					Counters: perNodeCounters(grid.Cells[i][j][k].Metrics),
				})
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// faultJSONCell is one (mtbf, mttr, recovery) cell of the fault-grid
// -json document.
type faultJSONCell struct {
	MTBF     float64          `json:"mtbf"`
	MTTR     float64          `json:"mttr"`
	Recovery string           `json:"recovery"`
	Metrics  *cluster.Metrics `json:"metrics"`
	// Counters is every node's raw whole-run counter block, node order.
	Counters []stats.Counters   `json:"counters"`
	Goodput  *serving.SLOReport `json:"goodput"`
}

// faultJSONDoc is the fault-grid -json report.
type faultJSONDoc struct {
	Workload string          `json:"workload"`
	Nodes    int             `json:"nodes"`
	Router   string          `json:"router"`
	Policy   string          `json:"policy"`
	Scale    int             `json:"scale"`
	Seed     uint64          `json:"seed"`
	Count    int             `json:"fault_count"`
	Detect   int64           `json:"detect_cycles"`
	SLO      serving.SLO     `json:"slo"`
	Cells    []faultJSONCell `json:"cells"`
}

// writeFaultJSON emits the fault grid as an indented JSON document on
// stdout.
func writeFaultJSON(grid *experiments.FaultGridResult, scale int) error {
	doc := faultJSONDoc{
		Workload: grid.Config.Name,
		Nodes:    grid.Nodes,
		Router:   grid.Router.String(),
		Policy:   grid.Pol.Label,
		Scale:    scale,
		Seed:     grid.Seed,
		Count:    grid.Count,
		Detect:   grid.Detect,
		SLO:      grid.SLO,
	}
	for i, mtbf := range grid.MTBFs {
		for j, mttr := range grid.MTTRs {
			cell := grid.Cells[i][j]
			re, dr := cell.Redispatch.Goodput, cell.Drop.Goodput
			doc.Cells = append(doc.Cells,
				faultJSONCell{MTBF: mtbf, MTTR: mttr, Recovery: "redispatch", Metrics: cell.Redispatch.Metrics,
					Counters: perNodeCounters(cell.Redispatch.Metrics), Goodput: &re},
				faultJSONCell{MTBF: mtbf, MTTR: mttr, Recovery: "drop", Metrics: cell.Drop.Metrics,
					Counters: perNodeCounters(cell.Drop.Metrics), Goodput: &dr})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// overloadJSONCell is one (rate, combo) cell of the overload-grid
// -json document.
type overloadJSONCell struct {
	Rate    float64          `json:"rate"`
	Combo   string           `json:"combo"`
	Metrics *cluster.Metrics `json:"metrics"`
	// Counters is every node's raw whole-run counter block, node order.
	Counters []stats.Counters   `json:"counters"`
	Goodput  *serving.SLOReport `json:"goodput"`
}

// overloadJSONDoc is the overload-grid -json report.
type overloadJSONDoc struct {
	Workload string             `json:"workload"`
	Nodes    int                `json:"nodes"`
	Router   string             `json:"router"`
	Policy   string             `json:"policy"`
	Scale    int                `json:"scale"`
	SLO      serving.SLO        `json:"slo"`
	Cells    []overloadJSONCell `json:"cells"`
}

// writeOverloadJSON emits the overload grid as an indented JSON
// document on stdout.
func writeOverloadJSON(grid *experiments.OverloadGridResult, scale int) error {
	doc := overloadJSONDoc{
		Workload: grid.Config.Name,
		Nodes:    grid.Nodes,
		Router:   grid.Router.String(),
		Policy:   grid.Pol.Label,
		Scale:    scale,
		SLO:      grid.SLO,
	}
	for i, rate := range grid.Rates {
		for j, combo := range grid.Combos {
			cell := grid.Cells[i][j]
			rep := cell.Goodput
			doc.Cells = append(doc.Cells, overloadJSONCell{
				Rate: rate, Combo: combo.Label, Metrics: cell.Metrics,
				Counters: perNodeCounters(cell.Metrics), Goodput: &rep,
			})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
