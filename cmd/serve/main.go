// Command serve runs serving scenarios: many concurrent decode
// requests under a continuous-batching scheduler, evaluated across
// the paper's throttle/arbiter policy matrix. This is the workload an
// inference server actually presents to the cache hierarchy — mixed
// sequence lengths, streams arriving and retiring, per-stream address
// spaces contending in the LLC and DRAM — and the serving metrics the
// figures do not report: aggregate tokens/kilocycle, token-latency
// percentiles and queueing delay.
//
//	serve                                  # stock 8-request scenario, unopt vs dynmg+BMA
//	serve -policies unopt,dynmg,dynmg+BMA  # wider policy matrix
//	serve -streams 16 -batch 8 -rate 15000 # heavier traffic
//	serve -model mix -av                   # mixed 70B/405B, Logit+AV per token
//	serve -sched chunked -chunk 32         # on-node chunked prefill before decode
//	serve -sched prefill-first -kvcap 4096 # monolithic prefill, bounded KV cache
//	serve -arrival burst:40000:0.25:6 -sched chunked -chunk 32 -kvcap 256 -preempt newest
//	serve -sessions 2 -session-depth 3 -sched chunked -prefix-cache 4096
//	serve -slo-ttft 200000 -slo-tbt 30000  # per-request deadlines, goodput report
//	serve -json                            # machine-readable metrics incl. TTFT
//	serve -dumptrace step0.trace           # write the first composed step trace
//
// Workload flags (-streams, -seqmin/-seqmax, -tokmin/-tokmax, -rate,
// -seed, -arrival) shape the fixed-seed request population and its
// arrival-rate shape (bursty, ramping, diurnal or trace-replayed
// modulation of the Poisson process); session flags (-sessions,
// -session-depth) group requests into multi-turn conversations whose
// follow-up turns extend the previous turn's context; scheduler flags
// (-sched, -chunk, -kvcap, -preempt, -prefix-cache) select the
// prefill/decode co-scheduling policy, the prefill chunk size, the
// KV-capacity admission bound, the recompute-on-preempt victim policy
// under KV pressure, and the session prefix-cache capacity that lets
// follow-up turns skip re-prefilling their shared context; SLO flags
// (-slo-ttft, -slo-tbt) set per-request deadlines and add
// goodput-under-SLO reports to the output;
// trace flags (-av, -dumptrace) control per-step trace composition;
// telemetry flags (-trace-out, -events-out, -timeseries-out,
// -sample-every) record the deterministic request-lifecycle event
// stream per policy cell as a Perfetto-loadable Chrome trace, a JSONL
// event log and a CSV gauge time series (with more than one policy the
// paths need a % cell placeholder);
// -hwprof attributes every step's hardware-counter delta to its
// phase (prefill, decode, recompute after preempt/redispatch), to the
// streams co-scheduled in the step and to -sample-every wall-clock
// buckets, classifies the node's bottleneck (memory-bound,
// compute-bound, stalled, idle) and prints the profile report after
// the table (or to -hwprof-out; hw counter tracks also flow into the
// telemetry exporters);
// -scale divides the prompt-length range and the L2 size together,
// preserving the working-set-to-cache ratio exactly like the figure
// harnesses; -stepcache selects the token-step fast path (on =
// signature memo + resettable simulator, nomemo = no memoized replay,
// off = the naive reference pipeline); -json switches the report from
// the aligned table to a JSON document of the full per-cell metrics
// (TTFT percentiles included) for downstream tooling;
// -cpuprofile/-memprofile capture pprof profiles of the run. Runs are
// deterministic for a fixed flag set (modulo the step-cache hit-rate
// diagnostics, which depend on process history).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro"
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
	streams, batch                 int
	sessions, sessionDepth         int
	prefixCache                    int64
	model                          string
	seqmin, seqmax, tokmin, tokmax int
	rate                           float64
	seed                           uint64
	av                             bool
	scale                          int
	sched                          string
	chunk                          int
	kvcap                          int64
	arrival, preempt               string
	sloTTFT                        int64
	sloTBT                         float64
	sloTTFTSet, sloTBTSet          bool
	policies                       string
	parallel                       int
	verbose, jsonOut               bool
	dumptrace, stepcache           string
	traceOut, eventsOut            string
	timeseriesOut                  string
	sampleEvery                    int64
	hwprof                         bool
	hwprofOut                      string
}

func main() {
	var o cliOpts
	flag.IntVar(&o.streams, "streams", 8, "number of decode requests in the scenario")
	flag.IntVar(&o.batch, "batch", 4, "continuous-batching capacity (concurrent streams)")
	flag.IntVar(&o.sessions, "sessions", 0, "distinct sessions the requests are drawn from (0 = one per request)")
	flag.IntVar(&o.sessionDepth, "session-depth", 1, "turns per conversation: >1 chains session requests so follow-ups extend the previous turn's context")
	flag.Int64Var(&o.prefixCache, "prefix-cache", 0, "session prefix-cache capacity in KV tokens (0 = off; needs a prefill -sched)")
	flag.StringVar(&o.model, "model", "70b", "request model mix: 70b, 405b or mix")
	flag.IntVar(&o.seqmin, "seqmin", 0, "min prompt length (0 = 512/scale)")
	flag.IntVar(&o.seqmax, "seqmax", 0, "max prompt length (0 = 2048/scale)")
	flag.IntVar(&o.tokmin, "tokmin", 4, "min tokens decoded per request")
	flag.IntVar(&o.tokmax, "tokmax", 8, "max tokens decoded per request")
	flag.Float64Var(&o.rate, "rate", 30000, "mean inter-arrival gap in cycles (0 = all arrive at cycle 0)")
	flag.Uint64Var(&o.seed, "seed", 1, "arrival-process seed")
	flag.BoolVar(&o.av, "av", false, "append the AV operator to every token step")
	flag.IntVar(&o.scale, "scale", 8, "divide default prompt lengths and the L2 size by this factor")
	flag.StringVar(&o.sched, "sched", "decode-only", "prefill scheduler: decode-only, prefill-first or chunked")
	flag.IntVar(&o.chunk, "chunk", 32, "prefill chunk size in tokens (chunked scheduler only)")
	flag.Int64Var(&o.kvcap, "kvcap", 0, "KV-cache capacity in tokens, gating admission (0 = unlimited)")
	flag.StringVar(&o.arrival, "arrival", "poisson", "arrival shape: poisson, burst:PERIOD:DUTY:FACTOR, ramp:PERIOD:FACTOR, diurnal:PERIOD:FACTOR or trace:PERIOD:M1,M2,...")
	flag.StringVar(&o.preempt, "preempt", "off", "KV preemption victim policy: off, newest or fewest-tokens (needs a prefill -sched and -kvcap)")
	flag.Int64Var(&o.sloTTFT, "slo-ttft", 0, "TTFT SLO deadline in cycles (0 = no TTFT deadline)")
	flag.Float64Var(&o.sloTBT, "slo-tbt", 0, "mean time-between-tokens SLO deadline in cycles (0 = no TBT deadline)")
	flag.StringVar(&o.policies, "policies", "unopt,dynmg+BMA", "comma-separated policy list, e.g. unopt,dyncta,dynmg,dynmg+BMA")
	flag.IntVar(&o.parallel, "parallel", 0, "concurrent policy cells (0 = GOMAXPROCS)")
	flag.BoolVar(&o.verbose, "v", false, "stream per-cell progress to stderr")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON metrics instead of the table")
	flag.StringVar(&o.dumptrace, "dumptrace", "", "write the first step's composed multi-stream trace to this file")
	flag.StringVar(&o.stepcache, "stepcache", "on", "token-step fast path: on, nomemo or off (the naive reference)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto) trace per cell; with >1 policy the path needs a % cell placeholder")
	flag.StringVar(&o.eventsOut, "events-out", "", "write a JSONL lifecycle-event log per cell (same % placeholder rule)")
	flag.StringVar(&o.timeseriesOut, "timeseries-out", "", "write a CSV gauge time series per cell (needs -sample-every; same % placeholder rule)")
	flag.Int64Var(&o.sampleEvery, "sample-every", 0, "sample telemetry gauges every N cycles (0 = off; needs an output path)")
	flag.BoolVar(&o.hwprof, "hwprof", false, "attribute hardware counters per phase/request/bucket and classify the bottleneck (-sample-every sets the bucket width)")
	flag.StringVar(&o.hwprofOut, "hwprof-out", "", "write the per-cell hardware profile report to this file instead of stdout (needs -hwprof; same % placeholder rule)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	o.sloTTFTSet = flagSet("slo-ttft")
	o.sloTBTSet = flagSet("slo-tbt")

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	err = run(o)

	// Flush the profiles before the error exit below: os.Exit skips
	// defers, which would truncate them.
	stopCPU()
	if merr := profiling.WriteHeap(*memprofile); merr != nil {
		fmt.Fprintln(os.Stderr, "serve:", merr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
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
	// Validate the workload shape up front with flag-level messages
	// instead of letting a deep generator or engine error report it.
	// An SLO deadline flag passed explicitly must be positive — an
	// explicit zero is a contradiction (asking for a deadline and
	// disabling it at once), not a disabled deadline.
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
	models, err := modelMix(o.model)
	if err != nil {
		return err
	}
	// Computed defaults clamp to the mapping floor like
	// serving.DefaultScenario, so any -scale works; explicitly passed
	// values are validated as given.
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
	scn, err := serving.NewScenario(serving.ScenarioConfig{
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
		NumSessions:      o.sessions,
		SessionDepth:     o.sessionDepth,
		Sched:            sched,
	})
	if err != nil {
		return err
	}

	var pols []experiments.Policy
	for _, s := range strings.Split(o.policies, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p, err := llamcat.ParsePolicy(s)
		if err != nil {
			return err
		}
		pols = append(pols, experiments.Policy{Label: s, Throttle: p.Throttle, Arbiter: p.Arbiter})
	}
	if len(pols) == 0 {
		return fmt.Errorf("empty policy list")
	}

	if o.hwprofOut != "" && !o.hwprof {
		return fmt.Errorf("-hwprof-out needs -hwprof")
	}

	base := sim.DefaultConfig()

	if o.dumptrace != "" {
		if err := writeFirstStep(scn, base, o.dumptrace); err != nil {
			return err
		}
	}

	// The grid runner applies Scale (L2 size / scale), matching the
	// figure harnesses, and validates the telemetry and -hwprof-out
	// paths against its cell count before any simulation: a typo'd
	// directory or a missing % placeholder fails immediately. -hwprof
	// consumes the -sample-every grid directly (bucketed utilization,
	// lined up row-for-row with the gauge time-series), so sampling
	// without a telemetry output path is legal when profiling is on.
	trace := &telemetry.Spec{TraceOut: o.traceOut, EventsOut: o.eventsOut, TimeseriesOut: o.timeseriesOut,
		SampleEvery: o.sampleEvery, AllowBareSampling: o.hwprof}
	opts := experiments.Options{Base: &base, Scale: o.scale, Parallel: o.parallel, StepCache: mode, Trace: trace,
		HWProf: hwprof.Spec{Enabled: o.hwprof, SampleEvery: o.sampleEvery}, HWProfOut: o.hwprofOut}
	if o.verbose {
		opts.Log = os.Stderr
	}
	grid, err := experiments.ServeGrid(scn, pols, opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return writeJSON(grid, sched, o.scale, slo)
	}
	fmt.Print(grid.Render())
	if slo.Enabled() {
		for i, p := range grid.Policies {
			fmt.Printf("\ngoodput under SLO [%s]\n%s", p.Label, serving.Goodput(grid.Metrics[i], slo))
		}
	}
	// With no -hwprof-out the full per-cell profile reports follow the
	// table on stdout (the grid runner wrote them to files otherwise).
	if o.hwprof && o.hwprofOut == "" {
		for i, p := range grid.Policies {
			if hw := grid.Metrics[i].HW; hw != nil {
				fmt.Printf("\n%s", hw.Render(p.Label))
			}
		}
	}
	return nil
}

// jsonCell is one policy cell of the -json document.
type jsonCell struct {
	Policy  string           `json:"policy"`
	Metrics *serving.Metrics `json:"metrics"`
	// Counters re-exports the cell's raw whole-run hardware counters
	// at the top level, so scripts consuming profiles read them without
	// digging through the metrics document.
	Counters *stats.Counters `json:"counters"`
	// Goodput is present when an SLO deadline was set.
	Goodput *serving.SLOReport `json:"goodput,omitempty"`
}

// jsonDoc is the -json report: the scenario identity plus every
// policy cell's full serving metrics (TTFT percentiles included).
type jsonDoc struct {
	Scenario  string     `json:"scenario"`
	Requests  int        `json:"requests"`
	Scale     int        `json:"scale"`
	Scheduler string     `json:"scheduler"`
	Cells     []jsonCell `json:"cells"`
}

// writeJSON emits the grid as an indented JSON document on stdout.
func writeJSON(grid *experiments.ServeGridResult, sched serving.SchedulerConfig, scale int, slo serving.SLO) error {
	doc := jsonDoc{
		Scenario:  grid.Scenario.Name,
		Requests:  len(grid.Scenario.Requests),
		Scale:     scale,
		Scheduler: experiments.SchedLabel(sched),
	}
	for i, p := range grid.Policies {
		cell := jsonCell{Policy: p.Label, Metrics: grid.Metrics[i], Counters: &grid.Metrics[i].Counters}
		if slo.Enabled() {
			rep := serving.Goodput(grid.Metrics[i], slo)
			cell.Goodput = &rep
		}
		doc.Cells = append(doc.Cells, cell)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeFirstStep composes the scenario's first token step (the batch
// admitted at the earliest non-empty boundary) and serialises its
// interleaved multi-stream trace for inspection with cmd/tracegen
// tooling.
func writeFirstStep(scn serving.Scenario, cfg sim.Config, path string) error {
	states, err := serving.FirstStep(scn)
	if err != nil {
		return err
	}
	tr, _, err := serving.ComposeStep(states, scn.IncludeAV, cfg.LineBytes)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: wrote %d-stream step trace (%d blocks) to %s\n",
		len(states), len(tr.Blocks), path)
	return nil
}
