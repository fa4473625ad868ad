package cli

import (
	"fmt"
	"math"
	"os"

	"repro/internal/experiments"
	"repro/internal/hwprof"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Flags are the flags cmd/serve and cmd/cluster share: workload,
// scheduler, SLO, telemetry, profiling and output. Setup validates them.
type Flags struct {
	*Command
	streams, sessions, sessionDepth, batch int
	prefixCache, kvcap                     int64
	model, sched, arrival, preempt         string
	seqmin, seqmax, tokmin, tokmax, chunk  int
	rate                                   float64
	seed                                   uint64
	av                                     bool
	scale, parallel                        int
	sloTTFT                                int64
	sloTBT                                 float64
	verbose                                bool
	stepcache                              string
	traceOut, eventsOut, timeseriesOut     string
	sampleEvery                            int64
	hwprof                                 bool
	hwprofOut                              string
	// JSON is -json: the command writes a Doc instead of its table.
	JSON bool
}

// New registers the shared flags on a fresh flag set for the named
// command. streams, sessions and rate are the defaults of the three
// flags whose defaults the commands set apart.
func New(name string, streams, sessions int, rate float64) *Flags {
	f := &Flags{Command: NewCommand(name).Profiled()}
	f.IntVar(&f.streams, "streams", streams, "number of decode requests in the scenario")
	f.IntVar(&f.sessions, "sessions", sessions, "distinct sessions the requests are drawn from (0 = one per request)")
	f.IntVar(&f.sessionDepth, "session-depth", 1, "turns per conversation: >1 chains session requests so follow-ups extend the previous turn's context")
	f.Int64Var(&f.prefixCache, "prefix-cache", 0, "per-node session prefix-cache capacity in KV tokens (0 = off; needs a prefill -sched)")
	f.IntVar(&f.batch, "batch", 4, "per-node continuous-batching capacity (concurrent streams)")
	f.StringVar(&f.model, "model", "70b", "request model mix: 70b, 405b or mix")
	f.IntVar(&f.seqmin, "seqmin", 0, "min prompt length (0 = 512/scale)")
	f.IntVar(&f.seqmax, "seqmax", 0, "max prompt length (0 = 2048/scale)")
	f.IntVar(&f.tokmin, "tokmin", 4, "min tokens decoded per request")
	f.IntVar(&f.tokmax, "tokmax", 8, "max tokens decoded per request")
	f.Float64Var(&f.rate, "rate", rate, "mean inter-arrival gap in cycles (0 = all arrive at cycle 0)")
	f.Uint64Var(&f.seed, "seed", 1, "arrival-process seed")
	f.BoolVar(&f.av, "av", false, "append the AV operator to every token step")
	f.IntVar(&f.scale, "scale", 8, "divide default prompt lengths and the L2 size by this factor (>= 1)")
	f.StringVar(&f.sched, "sched", "decode-only", "prefill scheduler every node runs: decode-only, prefill-first or chunked")
	f.IntVar(&f.chunk, "chunk", 32, "prefill chunk size in tokens (chunked scheduler only)")
	f.Int64Var(&f.kvcap, "kvcap", 0, "per-node KV-cache capacity in tokens, gating admission (0 = unlimited)")
	f.StringVar(&f.arrival, "arrival", "poisson", "arrival shape: poisson, burst:PERIOD:DUTY:FACTOR, ramp:PERIOD:FACTOR, diurnal:PERIOD:FACTOR or trace:PERIOD:M1,M2,...")
	f.StringVar(&f.preempt, "preempt", "off", "per-node KV preemption victim policy: off, newest or fewest-tokens (needs a prefill -sched and -kvcap)")
	f.Int64Var(&f.sloTTFT, "slo-ttft", 0, "TTFT SLO deadline in cycles (0 = no TTFT deadline)")
	f.Float64Var(&f.sloTBT, "slo-tbt", 0, "mean time-between-tokens SLO deadline in cycles (0 = no TBT deadline)")
	f.IntVar(&f.parallel, "parallel", 0, "concurrent cells / node engines (0 = GOMAXPROCS)")
	f.BoolVar(&f.verbose, "v", false, "stream per-cell progress to stderr")
	f.BoolVar(&f.JSON, "json", false, "emit machine-readable JSON metrics instead of the table")
	f.StringVar(&f.stepcache, "stepcache", "on", "token-step fast path: on, nomemo or off (the naive reference)")
	f.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto) trace per cell; with >1 cell the path needs a % cell placeholder")
	f.StringVar(&f.eventsOut, "events-out", "", "write a JSONL lifecycle-event log per cell (same % placeholder rule)")
	f.StringVar(&f.timeseriesOut, "timeseries-out", "", "write a CSV gauge time series per cell (needs -sample-every; same % placeholder rule)")
	f.Int64Var(&f.sampleEvery, "sample-every", 0, "sample per-node telemetry gauges every N cycles (0 = off; needs an output path)")
	f.BoolVar(&f.hwprof, "hwprof", false, "attribute hardware counters per phase/request/bucket on every node and classify the bottleneck (-sample-every sets the bucket width)")
	f.StringVar(&f.hwprofOut, "hwprof-out", "", "write the per-cell hardware profile report to this file instead of stdout (needs -hwprof; same % placeholder rule)")
	return f
}

// Setup is what the shared flags resolve to: the workload (NumSessions
// carries -sessions), the SLO and the options every grid runs under.
type Setup struct {
	Scenario serving.ScenarioConfig
	SLO      serving.SLO
	Options  experiments.Options
}

// Setup validates the shared flags up front with flag-level messages,
// instead of letting a deep generator or engine error (or hang) report
// them, and resolves them. An SLO deadline passed explicitly must be
// positive: an explicit zero asks for a deadline and disables it at
// once.
func (f *Flags) Setup() (Setup, error) {
	mode, err := serving.ParseStepCacheMode(f.stepcache)
	if err != nil {
		return Setup{}, err
	}
	schedPol, err := serving.ParseSchedPolicy(f.sched)
	if err != nil {
		return Setup{}, err
	}
	preemptPol, err := serving.ParsePreemptPolicy(f.preempt)
	if err != nil {
		return Setup{}, err
	}
	arrival, err := serving.ParseArrival(f.arrival)
	if err != nil {
		return Setup{}, err
	}
	switch {
	case f.streams <= 0:
		return Setup{}, fmt.Errorf("-streams must be positive, got %d", f.streams)
	case f.batch <= 0:
		return Setup{}, fmt.Errorf("-batch must be positive, got %d", f.batch)
	case f.sessions < 0:
		return Setup{}, fmt.Errorf("-sessions must be non-negative, got %d", f.sessions)
	case f.sessionDepth < 0:
		return Setup{}, fmt.Errorf("-session-depth must be non-negative, got %d", f.sessionDepth)
	case f.prefixCache < 0:
		return Setup{}, fmt.Errorf("-prefix-cache must be non-negative, got %d", f.prefixCache)
	case f.tokmin <= 0 || f.tokmax < f.tokmin:
		return Setup{}, fmt.Errorf("decode range [-tokmin %d, -tokmax %d] invalid", f.tokmin, f.tokmax)
	case f.rate < 0 || math.IsNaN(f.rate) || math.IsInf(f.rate, 0):
		return Setup{}, fmt.Errorf("-rate must be non-negative and finite, got %v", f.rate)
	case f.kvcap < 0:
		return Setup{}, fmt.Errorf("-kvcap must be non-negative, got %d", f.kvcap)
	case f.sloTTFT < 0 || (f.Passed("slo-ttft") && f.sloTTFT == 0):
		return Setup{}, fmt.Errorf("-slo-ttft must be a positive cycle deadline, got %d", f.sloTTFT)
	case f.sloTBT < 0 || (f.Passed("slo-tbt") && f.sloTBT == 0):
		return Setup{}, fmt.Errorf("-slo-tbt must be a positive cycle deadline, got %v", f.sloTBT)
	case f.scale < 1:
		return Setup{}, fmt.Errorf("-scale must be positive, got %d", f.scale)
	case f.hwprofOut != "" && !f.hwprof:
		return Setup{}, fmt.Errorf("-hwprof-out needs -hwprof")
	}
	sched := serving.SchedulerConfig{Policy: schedPol, KVCapTokens: f.kvcap, Preempt: preemptPol,
		PrefixCacheTokens: f.prefixCache}
	if schedPol == serving.SchedChunked {
		sched.ChunkTokens = f.chunk
	} else if f.Passed("chunk") {
		return Setup{}, fmt.Errorf("-chunk only applies to -sched chunked (got -sched %s)", schedPol)
	}
	if err := sched.Validate(); err != nil {
		return Setup{}, err
	}
	models, err := modelMix(f.model)
	if err != nil {
		return Setup{}, err
	}
	// Computed defaults clamp to the mapping floor like
	// serving.DefaultScenario, so any -scale works; explicitly passed
	// values are validated as given.
	seqmin, seqmax := f.seqmin, f.seqmax
	if seqmin == 0 {
		seqmin = max(512/f.scale, 16)
	}
	if seqmax == 0 {
		seqmax = max(2048/f.scale, seqmin)
	}
	base := sim.DefaultConfig()
	// The grid runners apply Scale (L2 size / scale) like the figure
	// harnesses and check the telemetry and -hwprof-out paths against
	// their cell count before any simulation. -hwprof consumes the
	// -sample-every grid directly (bucketed utilization), so sampling
	// without a telemetry output path is legal when profiling is on.
	opts := experiments.Options{Base: &base, Scale: f.scale, Parallel: f.parallel, StepCache: mode,
		Trace: &telemetry.Spec{TraceOut: f.traceOut, EventsOut: f.eventsOut, TimeseriesOut: f.timeseriesOut,
			SampleEvery: f.sampleEvery, AllowBareSampling: f.hwprof},
		HWProf: hwprof.Spec{Enabled: f.hwprof, SampleEvery: f.sampleEvery}, HWProfOut: f.hwprofOut}
	if f.verbose {
		opts.Log = os.Stderr
	}
	return Setup{
		Scenario: serving.ScenarioConfig{
			Name:             fmt.Sprintf("%s/%dreq/seed%d", f.model, f.streams, f.seed),
			Seed:             f.seed,
			NumRequests:      f.streams,
			Models:           models,
			MinPromptLen:     seqmin,
			MaxPromptLen:     seqmax,
			MinDecode:        f.tokmin,
			MaxDecode:        f.tokmax,
			MeanInterArrival: f.rate,
			Arrival:          arrival,
			MaxBatch:         f.batch,
			IncludeAV:        f.av,
			NumSessions:      f.sessions,
			SessionDepth:     f.sessionDepth,
			Sched:            sched,
		},
		SLO:     serving.SLO{TTFTCycles: f.sloTTFT, TBTCycles: f.sloTBT},
		Options: opts,
	}, nil
}

// modelMix reads -model: one model, or "mix" for both.
func modelMix(name string) ([]workload.ModelConfig, error) {
	if name == "mix" {
		return []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B}, nil
	}
	m, err := workload.ParseModel(name)
	if err != nil {
		return nil, fmt.Errorf("unknown model mix %q", name)
	}
	return []workload.ModelConfig{m}, nil
}
