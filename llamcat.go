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
	"io"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/experiments"
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

// Policy selects the (throttling, arbitration) pair to simulate. Its
// Label names it in reports; Run and the serving entry points read only
// Throttle ("none", "dyncta", "lcs", "dynmg" or "static:N") and Arbiter.
type Policy = experiments.Policy

// The policy points evaluated in the paper.
var (
	PolicyUnopt    = experiments.Unopt
	PolicyDynMG    = experiments.DynMG
	PolicyDynMGB   = experiments.DynMGB
	PolicyDynMGMA  = experiments.DynMGMA
	PolicyDynMGBMA = experiments.DynMGBMA
	PolicyDyncta   = experiments.Dyncta
	PolicyLCS      = experiments.LCS
	PolicyCobrra   = experiments.Cobrra
)

// ParsePolicy reads "throttle+arbiter" (e.g. "dynmg+BMA", "dyncta",
// "none+cobrra") into a policy labelled s. A bare arbiter name is that
// arbiter without throttling, so the figure label "cobrra" reads as
// "none+cobrra".
func ParsePolicy(s string) (Policy, error) { return experiments.ParsePolicy(s) }

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

// SchedChunked is the chunked-prefill scheduler: fixed-size prompt
// chunks co-scheduled with decode steps, Sarathi-Serve style. The zero
// SchedPolicy is decode-only (prompt prefilled elsewhere);
// ParseSchedPolicy also reads "prefill-first" (monolithic prompt passes
// that stall decode).
const SchedChunked = serving.SchedChunked

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

// ServeOptions re-exports the serving run options.
type ServeOptions = serving.RunOptions

// ServeWith is Serve with explicit run options: the step-cache mode
// and memo, telemetry and hardware profiling.
func ServeWith(cfg Config, scn ServeScenario, pol Policy, opts ServeOptions) (*ServeMetrics, error) {
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	return serving.RunWith(cfg, scn, opts)
}

// PreemptNewest is the recompute-on-preempt victim policy that evicts
// the latest admission first (least sunk cost) when the queue head
// cannot reserve its KV footprint; set it as SchedulerConfig.Preempt.
// The zero value disables preemption.
const PreemptNewest = serving.PreemptNewest

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

// The stock router policies of the fleet examples.
var (
	RouterRoundRobin       = RouterPolicy{Kind: cluster.RoundRobin}
	RouterLeastOutstanding = RouterPolicy{Kind: cluster.LeastOutstanding}
	RouterPowerOfTwo       = RouterPolicy{Kind: cluster.PowerOfTwo}
	RouterSessionAffinity  = RouterPolicy{Kind: cluster.SessionAffinity}
)

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

// TraceEvent re-exports one telemetry lifecycle event: a typed record
// (arrival, routing, admission, prefill chunk, decode step, prefix
// hit, preemption, shed/retry, retirement or gauge sample) stamped
// with the global cycle and request/session/node/slot identity.
type TraceEvent = telemetry.Event

// TraceCollector re-exports the deterministic event collector: one
// append-only buffer per node plus a router buffer, merged into a
// single cycle-ordered stream whose bytes are identical at any
// internal parallelism.
type TraceCollector = telemetry.Collector

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
