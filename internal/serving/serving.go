// Package serving is the serving-scenario engine: it models an
// inference server running many concurrent decode requests under a
// continuous-batching scheduler on the paper's simulated hardware —
// the production regime the single-operator figures of Section 6
// deliberately isolate away.
//
// A scenario is a population of decode requests (per-request model,
// prompt length, decode length, arrival cycle) plus a batch capacity.
// The engine advances the server one token step at a time: the
// per-token Logit (and optionally AV) operator traces of every
// running stream are composed into one interleaved multi-stream
// memory trace — each stream at its own address-space offset, so
// streams contend realistically in the LLC, MSHRs and DRAM — and the
// composed trace drives the cycle-level engine of internal/sim.
// Requests are admitted FCFS at step boundaries whenever a batch slot
// is free and retire when their decode budget is exhausted — the
// iteration-granularity admission of continuous batching.
//
// The engine reports serving-level metrics the paper's figures do
// not: aggregate decode throughput (tokens per kilocycle), per-token
// latency percentiles (p50/p95/p99), queueing delay, and batch
// occupancy, across the same throttle/arbiter policy matrix. Every
// run is deterministic: the arrival process is fixed-seed
// (splitmix64), the simulator is deterministic, and admission is
// FCFS, so the same (scenario, config) pair always yields the same
// Metrics.
package serving

import (
	"fmt"
	"slices"

	"repro/internal/hwprof"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RequestStats is the per-request outcome of a serving run.
type RequestStats struct {
	ID           int
	Model        string
	ArrivalCycle int64
	AdmitCycle   int64
	FinishCycle  int64
	QueueDelay   int64 // AdmitCycle - ArrivalCycle
	// FirstTokenCycle is when the request's first decode token
	// completed; TTFT (time to first token) is FirstTokenCycle -
	// ArrivalCycle: queueing, any on-node prefill, and the first decode
	// step. Zero while the request has not produced a token.
	FirstTokenCycle int64
	TTFT            int64
	Tokens          int // tokens generated
	FinalKVLen      int // KV-cache length at retirement
	// Preemptions counts how many times the request's stream was
	// evicted under KV pressure (recompute-on-preempt). TTFT and
	// QueueDelay always measure from the ORIGINAL arrival and first
	// admission — re-admissions after preemption never reset them.
	Preemptions int
	// PrefixTokens is the prompt tokens this request skipped via
	// session prefix-cache hits, summed across admissions (a preempted
	// request re-validates its prefix on re-admission). Zero with the
	// cache off.
	PrefixTokens int
}

// Percentiles summarises a latency sample in cycles.
type Percentiles struct {
	P50, P95, P99 float64
	Mean          float64
	Max           float64
}

// Summarise reduces a latency sample (cycles) to its percentile
// summary (stats.Percentile's definition); exported for the cluster
// layer's fleet-level latency aggregation. It sorts xs in place rather
// than a copy, so it allocates nothing; the mean is summed in the
// sample's original order first.
func Summarise(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	slices.Sort(xs)
	return Percentiles{
		P50:  stats.SortedPercentile(xs, 50),
		P95:  stats.SortedPercentile(xs, 95),
		P99:  stats.SortedPercentile(xs, 99),
		Max:  xs[len(xs)-1],
		Mean: sum / float64(len(xs)),
	}
}

// Metrics is the outcome of one serving run.
type Metrics struct {
	Requests int
	Tokens   int64
	Steps    int64 // continuous-batching iterations executed
	// PrefillTokens is the prompt tokens prefilled on-node (zero under
	// the decode-only scheduler); PrefillSteps counts the steps that
	// carried a prefill pass (a chunked step carrying both decode
	// tokens and a chunk counts once in Steps and once here).
	PrefillTokens int64
	PrefillSteps  int64
	// Preemptions is the total recompute-on-preempt eviction events
	// (zero unless SchedulerConfig.Preempt is set). Every eviction
	// later costs a re-prefill of the victim's whole KV prefix, which
	// shows up in PrefillTokens.
	Preemptions int64
	// PrefixHits / PrefixMisses count prefix-cache lookups at
	// admission: every admission of a request carrying PrefixLen > 0
	// (including re-admissions after preemption, which re-validate)
	// counts as a hit when a usable cached prefix was found, else a
	// miss. PrefillTokensSaved is the prompt tokens those hits skipped
	// — prefill work the engine never ran. PrefixHitRate is
	// hits / (hits + misses), 0 when the cache is off or no request
	// carried a prefix. All zero with PrefixCacheTokens == 0.
	PrefixHits         int64
	PrefixMisses       int64
	PrefillTokensSaved int64
	PrefixHitRate      float64
	// Cycles is the busy time: the sum of every step's simulated
	// cycles. Makespan additionally includes the idle gaps when the
	// server was empty and waiting for arrivals.
	Cycles   int64
	Makespan int64
	// TokensPerKCycle is the aggregate decode throughput:
	// 1000 × Tokens / Makespan.
	TokensPerKCycle float64
	// MeanBatchOccupancy is the mean number of streams per step —
	// Tokens / Steps, the continuous-batching utilisation.
	MeanBatchOccupancy float64
	// TokenLatency summarises per-token latency: every generated
	// token's latency is the simulated length of the step that
	// produced it (all streams of a step receive their token when the
	// iteration completes).
	TokenLatency Percentiles
	// QueueDelay summarises per-request admission delay in cycles.
	QueueDelay Percentiles
	// TTFT summarises per-request time to first token: arrival to the
	// completion of the step that produced the request's first decode
	// token — queueing plus on-node prefill plus the first decode step.
	TTFT Percentiles
	// Sim aggregates the cycle-level counters of every step and the
	// hardware metrics derived from them (hit rates, bandwidth, t_cs)
	// over the whole serving run.
	Counters stats.Counters
	Sim      stats.Metrics
	// StepCache reports what the token-step fast path did: memoized
	// replays vs executed steps, simulator rewinds and speculative
	// next steps. Diagnostics only — the
	// counters depend on process history and fan-out timing, so this
	// block sits outside the bit-identity guarantees every other field
	// carries (determinism tests compare metrics with StripStepCache
	// applied).
	StepCache StepCacheStats
	// HW is the hardware-counter attribution profile — per-phase and
	// per-request cost, the classified utilization time-series and the
	// node's bottleneck class. Nil unless RunOptions.HWProf.Enabled,
	// and omitted from JSON then, so profiling is invisible in every
	// serialized artifact when off.
	HW *hwprof.NodeProfile `json:"HW,omitempty"`
	// PerRequest holds one entry per request, in request-ID order.
	PerRequest []RequestStats
}

// StripStepCache zeroes the step-cache diagnostics, leaving only the
// bit-identical simulated metrics — the form the determinism and
// equivalence tests compare.
func (m *Metrics) StripStepCache() { m.StepCache = StepCacheStats{} }

// RunOptions tunes the token-step fast path of a serving run. The
// zero value is the default: the full step cache (memo + arena +
// resettable simulator) on the process-wide shared memo.
type RunOptions struct {
	// StepCache selects the execution path; StepCacheOff is the naive
	// reference the equivalence tests compare against.
	StepCache StepCacheMode
	// Memo overrides the step memo (nil = SharedStepMemo()). Ignored
	// unless StepCache is StepCacheOn.
	Memo *StepMemo
	// Sims lends the run its step simulators. Grid runners set it, as
	// they set cluster.Options.Scratch: they keep one pool per worker
	// and lend it to each run the worker executes in turn, so a grid
	// builds step simulators per worker, not per run. Any width serves;
	// a serving run takes no width token and does not speculate. nil,
	// the default, gives the run a private width-1 pool at its first
	// simulated step.
	Sims *SimPool
	// Sched is the prefill/decode scheduler the engine runs (zero
	// value: decode-only, unlimited KV). The scenario's Sched field is
	// authoritative: RunWith rejects a non-zero Sched here that
	// disagrees with the scenario's. Set it directly only when
	// constructing an Engine via NewEngineWith (the cluster layer
	// does, copying its scenario's scheduler).
	Sched SchedulerConfig
	// Recorder receives the engine's lifecycle telemetry events (see
	// internal/telemetry). nil — the default — disables recording
	// entirely: every emission site is branch-guarded on it, so an
	// unrecorded run takes the exact pre-telemetry paths and produces
	// bit-identical Metrics. The engine calls the recorder only from
	// the goroutine advancing it.
	Recorder telemetry.Recorder
	// SampleEvery emits a gauge sample (outstanding tokens, prefill
	// backlog, KV reservation, slot occupancy, prefix-cache fill)
	// every SampleEvery cycles on shared k·SampleEvery boundaries.
	// 0 disables sampling; ignored when Recorder is nil.
	SampleEvery int64
	// HWProf configures hardware-counter attribution (see
	// internal/hwprof). The zero value disables it — like Recorder,
	// every capture site is branch-guarded, so a run without profiling
	// takes the exact pre-hwprof paths and produces bit-identical
	// Metrics and telemetry. With Recorder also attached, the profile's
	// bucket time-series additionally flows into the trace as
	// KindHWSample events.
	HWProf hwprof.Spec
}

// Run executes a serving scenario on the configured system. The
// policy under evaluation is carried by cfg.Throttle / cfg.Arbiter,
// exactly as in single-operator runs; every other cfg field describes
// the hardware. The run is deterministic for a fixed (cfg, scn)
// (modulo the StepCache diagnostics block; see Metrics.StepCache).
//
// Run is a thin wrapper over Engine: every request is submitted in
// arrival order and the engine drained to completion — the same code
// path a cluster node executes, interleaved with routing.
func Run(cfg sim.Config, scn Scenario) (*Metrics, error) {
	return RunWith(cfg, scn, RunOptions{})
}

// RunWith is Run with an explicit step-cache configuration.
func RunWith(cfg sim.Config, scn Scenario, opts RunOptions) (*Metrics, error) {
	eng, err := submitAll(cfg, scn, opts)
	if err != nil {
		return nil, err
	}
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	eng.FlushHWSamples()
	// Counters.Cycles already equals Metrics.Cycles: every step's
	// Result carries its cycle count and Add accumulates it.
	return eng.Metrics(), nil
}

// FirstStep returns the stream states of the scenario's first step on
// the configured system: the running set the engine selects at the
// earliest arrival boundary, after admitting what fits the batch and
// KV capacity, before anything runs. cmd/serve uses it to dump the
// first composed step trace.
func FirstStep(cfg sim.Config, scn Scenario) ([]StreamState, error) {
	eng, err := submitAll(cfg, scn, RunOptions{})
	if err != nil {
		return nil, err
	}
	eng.now = eng.reqs[0].ArrivalCycle
	eng.admit()
	return eng.selectStep(eng.slots, nil), nil
}

// submitAll validates scn and returns an engine for it with every
// request submitted in arrival order.
func submitAll(cfg sim.Config, scn Scenario, opts RunOptions) (*Engine, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	stride, err := StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		return nil, err
	}
	if opts.Sched != (SchedulerConfig{}) && opts.Sched != scn.Sched {
		return nil, fmt.Errorf("serving: RunOptions.Sched %+v contradicts the scenario's scheduler %+v (the scenario is authoritative)",
			opts.Sched, scn.Sched)
	}
	opts.Sched = scn.Sched
	eng, err := NewEngineWith(cfg, scn.MaxBatch, scn.IncludeAV, stride, opts)
	if err != nil {
		return nil, err
	}
	eng.Prealloc(len(scn.Requests), scn.TotalTokens())
	reqs := make([]Request, len(scn.Requests))
	copy(reqs, scn.Requests)
	sortRequests(reqs)
	for _, r := range reqs {
		if err := eng.Submit(r); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// String renders the headline serving metrics as an aligned block.
func (m *Metrics) String() string {
	return fmt.Sprintf(
		"requests          %d\n"+
			"tokens            %d\n"+
			"steps             %d\n"+
			"prefill           %d tokens in %d steps\n"+
			"preemptions       %d\n"+
			"prefix cache      %d hits, %d misses, %d tokens saved (rate %.2f)\n"+
			"makespan          %d cycles\n"+
			"throughput        %.4f tokens/kcycle\n"+
			"batch occupancy   %.2f\n"+
			"token latency     p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n"+
			"TTFT              p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n"+
			"queue delay       p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n"+
			"L2 hit rate       %.4f\n"+
			"DRAM bandwidth    %.2f GB/s\n"+
			"step cache        memo %d/%d  sim resets %d\n",
		m.Requests, m.Tokens, m.Steps,
		m.PrefillTokens, m.PrefillSteps, m.Preemptions,
		m.PrefixHits, m.PrefixMisses, m.PrefillTokensSaved, m.PrefixHitRate, m.Makespan,
		m.TokensPerKCycle, m.MeanBatchOccupancy,
		m.TokenLatency.P50, m.TokenLatency.P95, m.TokenLatency.P99, m.TokenLatency.Max,
		m.TTFT.P50, m.TTFT.P95, m.TTFT.P99, m.TTFT.Max,
		m.QueueDelay.P50, m.QueueDelay.P95, m.QueueDelay.P99, m.QueueDelay.Max,
		m.Sim.L2HitRate, m.Sim.DRAMBandwidthGB,
		m.StepCache.MemoHits, m.StepCache.MemoHits+m.StepCache.MemoMisses,
		m.StepCache.SimResets)
}

// DefaultScenario returns the stock mixed-sequence-length scenario
// cmd/serve and the examples use: eight Llama3-70B requests at mixed
// prompt lengths, decoding 4–8 tokens each, Poisson arrivals, batch
// capacity four. scale divides the prompt-length range the way the
// experiment harnesses divide sequence lengths (scale 1 = the
// unscaled scenario; the default CLI scale is 8).
func DefaultScenario(scale int) (Scenario, error) {
	if scale <= 0 {
		scale = 1
	}
	minP, maxP := 512/scale, 2048/scale
	if minP < minKVLen {
		minP = minKVLen
	}
	if maxP < minP {
		maxP = minP
	}
	return NewScenario(ScenarioConfig{
		Name:             fmt.Sprintf("default/scale%d", scale),
		Seed:             1,
		NumRequests:      8,
		Models:           []workload.ModelConfig{workload.Llama3_70B},
		MinPromptLen:     minP,
		MaxPromptLen:     maxP,
		MinDecode:        4,
		MaxDecode:        8,
		MeanInterArrival: 30000,
		MaxBatch:         4,
	})
}
