// Package llamcat is a Go reproduction of "LLaMCAT: Optimizing Large
// Language Model Inference with Cache Arbitration and Throttling"
// (Zhou, Lai, Zhang — ICPP 2025).
//
// LLaMCAT optimises the last-level cache of GPU-like AI accelerators
// for the memory-bound decode stage of LLM inference. It combines
// MSHR- and load-balance-aware cache arbitration (the "B", "MA" and
// "BMA" policies) with two-level dynamic multi-gear thread throttling
// ("dynmg"), and evaluates them on a hybrid simulation framework that
// unrolls an analytical dataflow mapping into memory traces driving a
// cycle-level simulator.
//
// This package is the public facade. A minimal single-operator run:
//
//	op := llamcat.Logit(llamcat.Llama3_70B, 8192)
//	res, err := llamcat.Run(llamcat.DefaultConfig(), op, llamcat.PolicyDynMGBMA)
//
// Beyond the paper's single-operator cells, the repo also models the
// serving regime: many concurrent decode requests under a
// continuous-batching scheduler, composed into interleaved
// multi-stream traces (see internal/serving). A minimal serving run:
//
//	scn, err := llamcat.DefaultServeScenario(8)
//	m, err := llamcat.Serve(llamcat.DefaultConfig(), scn, llamcat.PolicyDynMGBMA)
//
// One layer further up, the cluster regime routes an open-loop
// request stream across a fleet of such servers under a pluggable
// load-balancing policy (see internal/cluster). A minimal fleet run:
//
//	fleet, err := llamcat.DefaultClusterScenario(8)
//	cm, err := llamcat.ServeCluster(llamcat.DefaultConfig(), fleet, 4,
//		llamcat.RouterPowerOfTwo, llamcat.PolicyDynMGBMA)
//
// The internal packages implement the substrates: internal/dataflow
// (Timeloop-like mapper + trace generation), internal/dram (DDR5 with
// FR-FCFS), internal/llc (sliced L2 with arbiter, MSHR and queues),
// internal/vcore (vector cores with instruction windows),
// internal/throttle (dynmg, DYNCTA, LCS), internal/arbiter (FCFS, B,
// MA, BMA, COBRRA), internal/sim (the cycle engine),
// internal/serving (the continuous-batching serving engine),
// internal/cluster (the routed multi-node fleet simulator) and
// internal/experiments (the figure, serving-grid and cluster-grid
// harnesses). See docs/ARCHITECTURE.md for the layer map.
package llamcat

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arbiter"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/hwprof"
	"repro/internal/memtrace"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config is the simulated system configuration; the zero value is not
// usable — start from DefaultConfig (Table 5 of the paper).
type Config = sim.Config

// DefaultConfig returns the paper's Table 5 system: 1.96 GHz, 16
// vector cores, 16 MB L2 in 8 slices with 6x8 MSHRs per slice, and
// 4-channel DDR5-3200.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Model re-exports the workload model shape.
type Model = workload.ModelConfig

// The evaluation models of the paper.
var (
	Llama3_70B  = workload.Llama3_70B
	Llama3_405B = workload.Llama3_405B
)

// Op is a Logit-operator workload instance.
type Op = workload.LogitOp

// Logit builds the decode-stage Logit (Q·Kᵀ) operator over a KV cache
// of seqLen tokens — the paper's benchmark workload.
func Logit(model Model, seqLen int) Op {
	return Op{Model: model, SeqLen: seqLen}
}

// AVWorkload is the attention-value operator (AttProb·V), the decode
// stage's other KV-cache-bound kernel, provided as an extension
// workload with the same GQA sharing structure.
type AVWorkload = workload.AVOp

// AV builds the attention-value operator over a KV cache of seqLen
// tokens.
func AV(model Model, seqLen int) AVWorkload {
	return AVWorkload{Model: model, SeqLen: seqLen}
}

// TraceAV generates the memory trace for the AV operator under the
// automatically selected dataflow mapping.
func TraceAV(op AVWorkload) (*memtrace.Trace, error) {
	amap, err := workload.NewAVAddressMap(op, 0)
	if err != nil {
		return nil, err
	}
	logitEquiv := workload.LogitOp{Model: op.Model, SeqLen: op.SeqLen}
	mapping, _, err := dataflow.FindMapping(logitEquiv, 64)
	if err != nil {
		return nil, err
	}
	blocks, err := dataflow.GenerateAV(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		return nil, err
	}
	return memtrace.NewTrace(dataflow.TraceName(op.Name(), mapping), blocks), nil
}

// RunAV simulates the AV operator like Run does for Logit.
func RunAV(cfg Config, op AVWorkload, pol Policy) (Result, error) {
	tr, err := TraceAV(op)
	if err != nil {
		return Result{}, err
	}
	return RunTrace(cfg, tr, op.Model.G, pol)
}

// PrefillWorkload is the prefill operator: a chunk of prompt tokens
// scored against the prompt prefix that ends with the chunk — the
// compute-bound phase preceding decode (see internal/workload).
type PrefillWorkload = workload.PrefillOp

// Prefill builds the prefill pass of chunkLen query tokens over a
// kvLen-token prompt prefix. A monolithic prefill of a P-token prompt
// is Prefill(model, P, P).
func Prefill(model Model, kvLen, chunkLen int) PrefillWorkload {
	return PrefillWorkload{Model: model, KVLen: kvLen, ChunkLen: chunkLen}
}

// TracePrefill generates the memory trace for one prefill pass under
// the automatically selected dataflow mapping.
func TracePrefill(op PrefillWorkload) (*memtrace.Trace, error) {
	amap, err := workload.NewPrefillAddressMap(op, 0)
	if err != nil {
		return nil, err
	}
	mapping, _, err := dataflow.FindPrefillMapping(op, 64)
	if err != nil {
		return nil, err
	}
	blocks, err := dataflow.GeneratePrefill(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		return nil, err
	}
	return memtrace.NewTrace(dataflow.TraceName(op.Name(), mapping), blocks), nil
}

// RunPrefill simulates one prefill pass like Run does for Logit.
func RunPrefill(cfg Config, op PrefillWorkload, pol Policy) (Result, error) {
	tr, err := TracePrefill(op)
	if err != nil {
		return Result{}, err
	}
	return RunTrace(cfg, tr, op.Model.G, pol)
}

// Policy selects the (throttling, arbitration) pair to simulate.
type Policy struct {
	// Throttle is one of "none", "dyncta", "lcs", "dynmg" or
	// "static:N".
	Throttle string
	// Arbiter is the LLC request arbitration policy.
	Arbiter arbiter.Kind
}

// The policy points evaluated in the paper.
var (
	PolicyUnopt    = Policy{Throttle: "none", Arbiter: arbiter.FCFS}
	PolicyDynMG    = Policy{Throttle: "dynmg", Arbiter: arbiter.FCFS}
	PolicyDynMGB   = Policy{Throttle: "dynmg", Arbiter: arbiter.Balanced}
	PolicyDynMGMA  = Policy{Throttle: "dynmg", Arbiter: arbiter.MA}
	PolicyDynMGBMA = Policy{Throttle: "dynmg", Arbiter: arbiter.BMA}
	PolicyDyncta   = Policy{Throttle: "dyncta", Arbiter: arbiter.FCFS}
	PolicyLCS      = Policy{Throttle: "lcs", Arbiter: arbiter.FCFS}
	PolicyCobrra   = Policy{Throttle: "none", Arbiter: arbiter.COBRRA}
)

// ParsePolicy reads "throttle+arbiter" (e.g. "dynmg+BMA", "dyncta",
// "none+cobrra"). A bare arbiter name is that arbiter without
// throttling, so the figure label "cobrra" reads as "none+cobrra".
func ParsePolicy(s string) (Policy, error) {
	throttle, arb, found := strings.Cut(s, "+")
	if !found {
		if k, err := arbiter.ParseKind(s); err == nil && k != arbiter.FCFS {
			return Policy{Throttle: "none", Arbiter: k}, nil
		}
		arb = "fcfs"
	}
	kind, err := arbiter.ParseKind(arb)
	if err != nil {
		return Policy{}, err
	}
	switch throttle {
	case "none", "unopt", "dyncta", "lcs", "dynmg":
	default:
		var n int
		if _, err := fmt.Sscanf(throttle, "static:%d", &n); err != nil {
			return Policy{}, fmt.Errorf("llamcat: unknown throttle policy %q", throttle)
		}
	}
	return Policy{Throttle: throttle, Arbiter: kind}, nil
}

// Metrics re-exports the derived statistics (Fig. 8 of the paper).
type Metrics = stats.Metrics

// Result is one simulation outcome.
type Result struct {
	Cycles  int64
	Metrics Metrics
	// Raw exposes every counter the run accumulated.
	Raw stats.Counters
	// TraceBlocks is the number of thread blocks executed.
	TraceBlocks int
}

// Trace generates the memory trace for op under the automatically
// selected dataflow mapping (the Timeloop-equivalent step of the
// hybrid framework). Most callers use Run directly; Trace is exposed
// for trace inspection and custom frontends.
func Trace(op Op) (*memtrace.Trace, error) {
	return dataflow.Trace(op, 64)
}

// TraceWithMapping generates the trace for op under a handwritten
// mapping (see dataflow.ParseMapping for the format).
func TraceWithMapping(op Op, mappingText string) (*memtrace.Trace, error) {
	mapping, err := dataflow.ParseMapping(mappingText)
	if err != nil {
		return nil, err
	}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		return nil, err
	}
	blocks, err := dataflow.Generate(op, amap, mapping, 64, new(memtrace.Slab))
	if err != nil {
		return nil, err
	}
	return memtrace.NewTrace(dataflow.TraceName(op.Name(), mapping), blocks), nil
}

// Run simulates op on the configured system under the given policy
// and returns the collected statistics.
func Run(cfg Config, op Op, pol Policy) (Result, error) {
	tr, err := Trace(op)
	if err != nil {
		return Result{}, err
	}
	return RunTrace(cfg, tr, op.Model.G, pol)
}

// RunTrace simulates a pre-generated trace (e.g. one loaded from a
// trace file or built under a handwritten mapping). groupSize is the
// workload's G, used by the spatial thread-block dispatcher.
func RunTrace(cfg Config, tr *memtrace.Trace, groupSize int, pol Policy) (Result, error) {
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	eng, err := sim.New(cfg, tr, groupSize)
	if err != nil {
		return Result{}, err
	}
	res, err := eng.Run()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Cycles:      res.Cycles,
		Metrics:     res.Metrics,
		Raw:         res.Counters,
		TraceBlocks: len(tr.Blocks),
	}, nil
}

// Speedup returns base.Cycles / opt.Cycles, the paper's metric.
func Speedup(base, opt Result) float64 {
	return stats.Speedup(base.Cycles, opt.Cycles)
}

// ServeScenario re-exports the serving workload: a population of
// decode requests plus a continuous-batching capacity.
type ServeScenario = serving.Scenario

// ServeScenarioConfig re-exports the fixed-seed scenario generator's
// parameters (request count, model mix, prompt/decode ranges, Poisson
// arrival rate).
type ServeScenarioConfig = serving.ScenarioConfig

// ServeMetrics re-exports the serving-level result: tokens/kilocycle,
// token-latency percentiles, queueing delay and the aggregated
// hardware counters of the whole run.
type ServeMetrics = serving.Metrics

// NewServeScenario draws a serving scenario deterministically from a
// seeded config — the same config always yields the same requests and
// arrival times.
func NewServeScenario(cfg ServeScenarioConfig) (ServeScenario, error) {
	return serving.NewScenario(cfg)
}

// DefaultServeScenario returns the stock eight-request
// mixed-sequence-length scenario at the given scale divisor (the
// scenario cmd/serve runs by default).
func DefaultServeScenario(scale int) (ServeScenario, error) {
	return serving.DefaultScenario(scale)
}

// SchedulerConfig re-exports the batch-scheduler configuration of a
// serving scenario: the prefill/decode co-scheduling policy, the
// prefill chunk size and the KV-cache capacity bound. The zero value
// is decode-only with unlimited KV — the prompt assumed prefilled
// elsewhere, exactly the pre-prefill engine.
type SchedulerConfig = serving.SchedulerConfig

// SchedPolicy re-exports the prefill/decode co-scheduling policy
// selector.
type SchedPolicy = serving.SchedPolicy

// The scheduler policies: decode-only (prompt prefilled elsewhere),
// prefill-first (monolithic prompt passes that stall decode), and
// chunked (fixed-size prompt chunks co-scheduled with decode steps,
// Sarathi-Serve style).
const (
	SchedDecodeOnly   = serving.SchedDecodeOnly
	SchedPrefillFirst = serving.SchedPrefillFirst
	SchedChunked      = serving.SchedChunked
)

// ParseSchedPolicy reads a scheduler policy name: "decode-only",
// "prefill-first" or "chunked".
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	return serving.ParseSchedPolicy(s)
}

// Serve runs a continuous-batching serving scenario under the given
// policy: token step by token step, every running stream's per-token
// operator trace composed into one interleaved multi-stream trace
// driving the cycle engine. Deterministic for a fixed (cfg, scn, pol)
// (modulo the StepCache diagnostics block of the returned metrics).
//
// By default the token-step fast path is on: steps whose canonical
// signature was simulated before — by any engine in the process — are
// replayed from the shared step memo, and executed steps reuse a
// persistent resettable simulator. ServeWith selects another mode.
func Serve(cfg Config, scn ServeScenario, pol Policy) (*ServeMetrics, error) {
	return ServeWith(cfg, scn, pol, ServeOptions{})
}

// StepCacheMode re-exports the token-step execution path selector.
type StepCacheMode = serving.StepCacheMode

// The step-cache modes: the full fast path (default), arena+reset
// without memoized replay, and the naive compose-fresh reference. All
// three produce bit-identical simulated metrics.
const (
	StepCacheOn     = serving.StepCacheOn
	StepCacheNoMemo = serving.StepCacheNoMemo
	StepCacheOff    = serving.StepCacheOff
)

// ServeOptions re-exports the serving run options (step-cache mode
// and memo override).
type ServeOptions = serving.RunOptions

// ServeWith is Serve with an explicit step-cache configuration —
// StepCacheOff is the naive reference path, the serving analogue of
// Config.Reference.
func ServeWith(cfg Config, scn ServeScenario, pol Policy, opts ServeOptions) (*ServeMetrics, error) {
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	return serving.RunWith(cfg, scn, opts)
}

// PreemptPolicy re-exports the KV preemption victim policy of a
// serving scenario's scheduler: which running stream is evicted
// (recompute-on-preempt) when the queue head cannot reserve its KV
// footprint. The zero value disables preemption.
type PreemptPolicy = serving.PreemptPolicy

// The preemption policies: off (queue head waits, the pre-overload
// behaviour), newest (latest admission evicted first — least sunk
// cost), and fewest-tokens (least decode progress lost).
const (
	PreemptOff          = serving.PreemptOff
	PreemptNewest       = serving.PreemptNewest
	PreemptFewestTokens = serving.PreemptFewestTokens
)

// ParsePreemptPolicy reads a preemption policy name: "off", "newest"
// or "fewest-tokens".
func ParsePreemptPolicy(s string) (PreemptPolicy, error) {
	return serving.ParsePreemptPolicy(s)
}

// ArrivalConfig re-exports the arrival-rate shape of a scenario's
// request stream: a deterministic modulation (burst, ramp, diurnal or
// trace replay) of the Poisson arrival process. The zero value is
// plain Poisson.
type ArrivalConfig = serving.ArrivalConfig

// ParseArrival reads an arrival-shape spec: "poisson",
// "burst:PERIOD:DUTY:FACTOR", "ramp:PERIOD:FACTOR",
// "diurnal:PERIOD:FACTOR" or "trace:PERIOD:M1,M2,...".
func ParseArrival(s string) (ArrivalConfig, error) {
	return serving.ParseArrival(s)
}

// SLO re-exports the per-request service-level objective: a TTFT
// deadline and/or a mean time-between-tokens deadline, in cycles.
// Zero deadlines disable each check.
type SLO = serving.SLO

// SLOReport re-exports the goodput-under-SLO summary: met/violated/
// unfinished counts and goodput (tokens of SLO-meeting requests per
// kilocycle).
type SLOReport = serving.SLOReport

// Goodput classifies a finished serving run against the SLO — pure
// post-processing, the run is never perturbed. Fleet-level runs use
// ClusterMetrics.Goodput instead.
func Goodput(m *ServeMetrics, slo SLO) SLOReport {
	return serving.Goodput(m, slo)
}

// FlushStepCaches drops every entry of the process-wide step memo,
// releasing its memory. Long-lived embeddings that cycle through many
// unrelated scenarios call it between phases; simulated results are
// unaffected (subsequent steps simulate what they need again).
func FlushStepCaches() { serving.FlushSharedCaches() }

// ClusterScenario re-exports the fleet workload: a session-tagged
// request population plus the per-node continuous-batching capacity.
type ClusterScenario = cluster.Scenario

// ClusterScenarioConfig re-exports the fixed-seed fleet workload
// generator's parameters: the serving generator's population knobs
// plus the session count.
type ClusterScenarioConfig = cluster.ScenarioConfig

// ClusterMetrics re-exports the fleet-level result: aggregate
// tokens/kilocycle, end-to-end latency percentiles including router
// queueing, per-node serving metrics and the load-imbalance
// coefficient.
type ClusterMetrics = cluster.Metrics

// RouterPolicy re-exports the request-router policy (the
// load-balancing decision, orthogonal to the cache-level Policy every
// node runs).
type RouterPolicy = cluster.Policy

// The stock router policies. RouterLeastTTFTPressure balances on
// outstanding decode tokens PLUS each node's prefill backlog, the
// time-to-first-token pressure signal of prefill-scheduled fleets.
// RouterPrefixAffinity routes each session to the node whose prefix
// cache retains the most of its context (falling back to the
// session-affinity hash when nothing is cached), the router of the
// prefix-reuse study — enable the cache with
// SchedulerConfig.PrefixCacheTokens.
var (
	RouterRoundRobin        = RouterPolicy{Kind: cluster.RoundRobin}
	RouterLeastOutstanding  = RouterPolicy{Kind: cluster.LeastOutstanding}
	RouterPowerOfTwo        = RouterPolicy{Kind: cluster.PowerOfTwo}
	RouterSessionAffinity   = RouterPolicy{Kind: cluster.SessionAffinity}
	RouterPrefixAffinity    = RouterPolicy{Kind: cluster.PrefixAffinity}
	RouterLeastTTFTPressure = RouterPolicy{Kind: cluster.LeastTTFTPressure}
)

// ParseRouterPolicy reads a router policy name: "round-robin" ("rr"),
// "least-outstanding" ("lot"), "p2c" ("power-of-two"), "affinity"
// ("session-affinity"), "prefix-affinity" ("pfx") or "ttft-pressure"
// ("ltp").
func ParseRouterPolicy(s string) (RouterPolicy, error) {
	return cluster.ParsePolicy(s)
}

// NewClusterScenario draws a fleet workload deterministically from a
// seeded config — the same config always yields the same requests,
// sessions and arrival times.
func NewClusterScenario(cfg ClusterScenarioConfig) (ClusterScenario, error) {
	return cluster.NewScenario(cfg)
}

// DefaultClusterScenario returns the stock sixteen-request,
// four-session fleet workload at the given scale divisor (the
// scenario cmd/cluster runs by default).
func DefaultClusterScenario(scale int) (ClusterScenario, error) {
	return cluster.DefaultScenario(scale)
}

// ClusterOptions re-exports the cluster run options (node fan-out
// width, step-cache mode, memo override).
type ClusterOptions = cluster.Options

// ServeCluster runs a fleet serving scenario: an open-loop request
// stream dispatched by the router policy to nodes identical
// continuous-batching engines, every node running the cache-level
// policy pol on its own cycle-level simulator. Deterministic for a
// fixed (cfg, scn, nodes, router, pol) at any internal parallelism
// (modulo the StepCache diagnostics block). The fleet's nodes share
// the process-wide step memo by default; ServeClusterWith selects
// another mode or memo.
func ServeCluster(cfg Config, scn ClusterScenario, nodes int, router RouterPolicy, pol Policy) (*ClusterMetrics, error) {
	return ServeClusterWith(cfg, scn, nodes, router, pol, ClusterOptions{})
}

// ServeClusterWith is ServeCluster with explicit cluster options.
func ServeClusterWith(cfg Config, scn ClusterScenario, nodes int, router RouterPolicy, pol Policy, opts ClusterOptions) (*ClusterMetrics, error) {
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	return cluster.Run(cfg, scn, nodes, router, opts)
}

// OverloadConfig re-exports the router-level overload control of a
// fleet run (ClusterOptions.Overload): per-node saturation shedding,
// deterministic retry/backoff and optional least-loaded forwarding.
// The zero value disables it and is bit-identical to the pre-overload
// router.
type OverloadConfig = cluster.OverloadConfig

// ParseOverload reads a shed spec: "off" or
// "SAT[:RETRIES[:BACKOFF[:forward]]]".
func ParseOverload(s string) (OverloadConfig, error) {
	return cluster.ParseOverload(s)
}

// FaultConfig re-exports the deterministic node-failure schedule of a
// fleet run (ClusterOptions.Faults): explicit crashes and straggler
// windows, or a seeded MTBF/MTTR generator, plus the failure
// detector's latency and the drop/blind recovery toggles. The zero
// value disables fault injection and is bit-identical to the
// fault-free fleet.
type FaultConfig = cluster.FaultConfig

// NodeCrash re-exports one scheduled crash of FaultConfig: the node
// loses all in-flight work, KV and prefix cache at a cycle and
// optionally rejoins cold later.
type NodeCrash = cluster.Crash

// NodeStraggler re-exports one scheduled slowdown window of
// FaultConfig: every engine step on the node costs Factor× its
// nominal cycles inside [From, To).
type NodeStraggler = cluster.Straggler

// FaultGen re-exports the seeded crash-schedule generator of
// FaultConfig: Count crash/rejoin incidents drawn from exponential
// MTBF/MTTR distributions, a pure function of its parameters and the
// fleet size.
type FaultGen = cluster.FaultGen

// NodeFaultStats re-exports the per-node fault accounting of
// ClusterMetrics: failures, redispatched victims, lost decode tokens
// and downtime cycles.
type NodeFaultStats = cluster.NodeFaultStats

// ParseFaults reads a fault spec: "off" or comma-joined clauses
// "crash:NODE:AT[:REJOIN]", "slow:NODE:FROM:TO:FACTOR",
// "gen:SEED:MTBF:MTTR:COUNT", "detect:CYCLES", "drop"/"redispatch"
// and "blind"/"aware".
func ParseFaults(s string) (FaultConfig, error) {
	return cluster.ParseFaults(s)
}

// TraceEvent re-exports one telemetry lifecycle event: a typed record
// (arrival, routing, admission, prefill chunk, decode step, prefix
// hit, preemption, shed/retry, retirement or gauge sample) stamped
// with the global cycle and request/session/node/slot identity.
type TraceEvent = telemetry.Event

// TraceEventKind re-exports the event-kind enum of TraceEvent.
type TraceEventKind = telemetry.Kind

// TraceRecorder re-exports the pluggable event sink. A nil recorder
// (the default everywhere) keeps every simulator on its unrecorded
// path, bit-identical to builds without telemetry.
type TraceRecorder = telemetry.Recorder

// TraceCollector re-exports the deterministic event collector: one
// append-only buffer per node plus a router buffer, merged into a
// single cycle-ordered stream whose bytes are identical at any
// internal parallelism.
type TraceCollector = telemetry.Collector

// TraceSpec re-exports the output configuration of the telemetry CLI
// flags (trace/events/timeseries paths plus the sampling period) with
// its validation and per-cell export helpers.
type TraceSpec = telemetry.Spec

// NewTraceCollector returns a collector sampling per-node gauges
// every sampleEvery cycles (0 disables sampling). Wire its Node(i)
// recorders into ServeOptions.Recorder or pass the collector as
// ClusterOptions.Telemetry.
func NewTraceCollector(sampleEvery int64) *TraceCollector {
	return telemetry.NewCollector(sampleEvery)
}

// WritePerfettoTrace writes the merged event stream as Chrome
// trace-event JSON, openable at https://ui.perfetto.dev: the router
// and each node render as processes, batch slots as threads, and each
// request's lifecycle as a flow-linked chain of spans.
func WritePerfettoTrace(w io.Writer, events []TraceEvent) error {
	return telemetry.WritePerfetto(w, events)
}

// WriteTraceJSONL writes the merged event stream as one JSON object
// per line, in deterministic order.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return telemetry.WriteJSONL(w, events)
}

// WriteTraceTimeseriesCSV writes the gauge samples of the merged
// event stream as a CSV time series: one row per (cycle, node) plus a
// fleet rollup row per sampling boundary. Runs profiled with
// HWProfSpec additionally carry hw counter columns (DRAM bytes, L2
// hit rate, mem-stall fraction, bus utilisation, bottleneck class).
func WriteTraceTimeseriesCSV(w io.Writer, events []TraceEvent) error {
	return telemetry.WriteTimeseriesCSV(w, events)
}

// HWProfSpec re-exports the hardware-profiling configuration. Set
// Enabled (and, optionally, SampleEvery for bucketed utilization) on
// ServeOptions.HWProf or ClusterOptions.HWProf to attribute every
// step's hardware-counter delta to its phase (prefill, decode,
// recompute after preempt/redispatch), to the streams co-scheduled in
// the step, and to wall-clock buckets; the resulting profile lands on
// ServeMetrics.HW / ClusterMetrics.HW. The zero value disables
// profiling and is bit-inert: metrics and telemetry are byte-identical
// to a build without it.
type HWProfSpec = hwprof.Spec

// HWProfile re-exports one node's attribution profile: per-phase and
// per-request HWCost, the classified bucket time-series and the
// node's majority bottleneck class, with a Render method producing
// the aligned report table.
type HWProfile = hwprof.NodeProfile

// HWFleetProfile re-exports the fleet rollup over per-node profiles
// (summed phases, pooled request percentiles, majority class).
type HWFleetProfile = hwprof.FleetProfile

// HWCost re-exports the per-request hardware cost vector: cycles,
// DRAM bytes, L2 hits/misses and core mem-stall cycles, split from
// each step's counter delta by per-stream tokens.
type HWCost = hwprof.HWCost

// BottleneckClass re-exports the classifier's label enum
// (idle / compute-bound / memory-bound / stalled).
type BottleneckClass = hwprof.Class

// BottleneckThresholds re-exports the classifier decision boundaries
// (zero value: defaults calibrated against the Table 5
// configuration). Set them on HWProfSpec.Thresholds.
type BottleneckThresholds = hwprof.Thresholds
