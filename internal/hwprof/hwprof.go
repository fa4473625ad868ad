// Package hwprof is the hardware-counter attribution layer of the
// serving stack: a per-step delta capture that explains where a
// node's cycles and DRAM bytes went. The paper's whole argument runs
// through hardware counters (cycles, cache-stall fraction t_cs, L2
// and MSHR hit rates, DRAM bandwidth — Section 6, Fig. 8), but the
// serving and cluster layers report them only as one whole-run
// aggregate per node; this package attributes every step's counter
// delta three ways:
//
//   - by phase — prefill vs decode vs recompute-after-preempt vs
//     recompute-after-redispatch — so the recompute tax of preemption
//     and crash recovery is visible as hardware work, not just as
//     token counts;
//   - by request — each co-scheduled stream receives a share of the
//     step's cycles and bytes proportional to its tokens in the
//     composed trace, rolled into per-request HWCost percentiles;
//   - by wall-clock bucket on the telemetry sampling grid — the
//     utilization time series the bottleneck classifier reads.
//
// The capture is exact, not sampled: the serving engine already
// applies every step as a (cycles, counters) delta — simulated steps
// from the cycle engine's Result, memo-replayed steps from the stored
// memo entry — so Step receives the authoritative delta on both
// paths and the fast path stays faithful. Summing the per-step deltas
// reproduces the whole-run stats.Counters bit for bit (the
// reconciliation tests enforce it), and a disabled profiler is
// bit-inert: every engine emission site is nil-guarded, exactly like
// the telemetry recorder.
package hwprof

import "repro/internal/stats"

// Phase enumerates where a step participant's hardware work is
// attributed. The zero value is PhasePrefill.
type Phase uint8

const (
	// PhasePrefill: a plain prefill chunk of a prompt never served
	// before on this node.
	PhasePrefill Phase = iota
	// PhaseDecode: one decode token of a running stream.
	PhaseDecode
	// PhaseRecomputePreempt: a prefill chunk re-deriving KV that a
	// preemption evicted (prompt plus previously generated tokens).
	PhaseRecomputePreempt
	// PhaseRecomputeRedispatch: a prefill chunk re-deriving KV lost
	// with a crashed node, paid by the node the request was
	// redispatched to.
	PhaseRecomputeRedispatch

	// NumPhases is the phase count, for fixed-size attribution arrays.
	NumPhases
)

var phaseNames = [...]string{
	"prefill", "decode", "recompute-preempt", "recompute-redispatch",
}

// String returns the stable wire name of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Spec configures profiling for a run. The zero value disables it —
// every engine hook is nil-guarded, so a disabled profile leaves the
// exact pre-profiling branch structure (bit-inert, like telemetry).
type Spec struct {
	// Enabled turns per-step capture on.
	Enabled bool
	// SampleEvery is the wall-clock bucket width in cycles, shared
	// with the telemetry gauge sampler's k·SampleEvery grid so
	// hardware buckets align with gauge samples. 0 = one whole-run
	// bucket.
	SampleEvery int64
}

// Params is the hardware shape the profile derives rates against,
// copied from the sim.Config the engine runs.
type Params struct {
	FreqGHz      float64
	LineBytes    int
	NumCores     int
	DRAMChannels int
}

// HWCost is a hardware cost attribution: the summable slice of a
// step's counter delta that one phase or one request received. Cycles
// are wall cycles (straggler slowdown included, matching the engine's
// clock); DRAMBytes is line-sized traffic (reads + writes);
// MemStallCycles is core-cycles blocked on memory (C_mem).
type HWCost struct {
	Cycles         int64
	DRAMBytes      int64
	L2Hits         int64
	L2Misses       int64
	MemStallCycles int64
}

// add accumulates o into c.
func (c *HWCost) add(o HWCost) {
	c.Cycles += o.Cycles
	c.DRAMBytes += o.DRAMBytes
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.MemStallCycles += o.MemStallCycles
}

// PhaseCost is one phase's attribution across a run.
type PhaseCost struct {
	Phase Phase
	// Steps counts the steps that carried at least one participant in
	// this phase (a chunked step with decodes and a recompute chunk
	// counts once for each phase present).
	Steps int64
	// Tokens is the tokens this phase processed: decode tokens for
	// PhaseDecode, prefilled prompt tokens for the prefill phases.
	Tokens int64
	HWCost
}

// StreamShare is one stream's participation in a composed step, the
// attribution weight the engine hands Step for every participant.
type StreamShare struct {
	// Req is the request ID the stream serves.
	Req int
	// Tokens is the stream's tokens in the composed trace: 1 for a
	// decode participant, the chunk length for a prefill pass.
	Tokens int
	// Phase is where this share's slice of the delta is attributed.
	Phase Phase
}

// bucketAcc is one sampling-grid bucket's raw accumulation.
type bucketAcc struct {
	steps int64
	busy  int64 // wall cycles of the steps that completed in the bucket
	ctr   stats.Counters
}

// Profile captures one node engine's per-step hardware-counter
// deltas. Not safe for concurrent use: like a telemetry Buffer, a
// Profile is only ever touched by the goroutine advancing the engine
// it is attached to, which is what keeps cluster runs byte-identical
// at any fan-out width.
type Profile struct {
	spec Spec
	par  Params

	steps      int64
	wallCycles int64 // Σ scaled step cycles == the engine's busy Cycles
	total      stats.Counters
	phases     [NumPhases]PhaseCost
	perReq     map[int]*HWCost
	buckets    []bucketAcc

	// split scratch, reused across steps.
	splitBuf [5][]int64
}

// New builds a profile for one engine. Callers pass the hardware
// parameters of the engine's sim.Config.
func New(par Params, spec Spec) *Profile {
	p := &Profile{spec: spec, par: par, perReq: make(map[int]*HWCost)}
	for i := range p.phases {
		p.phases[i].Phase = Phase(i)
	}
	return p
}

// Step folds one applied engine step into the profile. completion is
// the engine clock after the step (the cycle every participant's
// token or chunk completed), stepCycles the step's wall cycle cost
// (straggler slowdown included) and ctr the step's raw counter delta
// — the simulated Result's counters or the memo entry's stored copy,
// bit-identical by the step-cache equivalence contract. shares lists
// every participant of the composed step in running-set order; the
// slice is only read during the call.
func (p *Profile) Step(completion, stepCycles int64, ctr *stats.Counters, shares []StreamShare) {
	p.steps++
	p.wallCycles += stepCycles
	p.total.Add(ctr)

	b := p.bucket(completion)
	b.steps++
	b.busy += stepCycles
	b.ctr.Add(ctr)

	totTok := 0
	for i := range shares {
		totTok += shares[i].Tokens
	}
	if totTok <= 0 {
		return
	}
	// The five summable attribution quantities, split exactly across
	// participants by token weight (see splitByTokens): the shares of
	// each quantity sum back to the step's value bit for bit.
	dram := (ctr.DRAMReads + ctr.DRAMWrites) * int64(p.par.LineBytes)
	cyc := p.split(0, stepCycles, shares, totTok)
	db := p.split(1, dram, shares, totTok)
	l2h := p.split(2, ctr.L2Hits, shares, totTok)
	l2m := p.split(3, ctr.L2Misses, shares, totTok)
	stall := p.split(4, ctr.CoreMemStall, shares, totTok)

	var seen [NumPhases]bool
	for i := range shares {
		s := &shares[i]
		cost := HWCost{
			Cycles:         cyc[i],
			DRAMBytes:      db[i],
			L2Hits:         l2h[i],
			L2Misses:       l2m[i],
			MemStallCycles: stall[i],
		}
		ph := &p.phases[s.Phase]
		ph.add(cost)
		ph.Tokens += int64(s.Tokens)
		if !seen[s.Phase] {
			seen[s.Phase] = true
			ph.Steps++
		}
		rc := p.perReq[s.Req]
		if rc == nil {
			rc = &HWCost{}
			p.perReq[s.Req] = rc
		}
		rc.add(cost)
	}
}

// bucket returns the accumulation bucket a step completing at the
// given cycle lands in, growing the bucket list as the clock
// advances. Bucket i covers (i·K, (i+1)·K] on the shared sampling
// grid — a step completing exactly on a boundary belongs to the
// bucket it closed, matching the gauge sampler's boundary stamps.
func (p *Profile) bucket(completion int64) *bucketAcc {
	idx := 0
	if p.spec.SampleEvery > 0 && completion > 0 {
		idx = int((completion - 1) / p.spec.SampleEvery)
	}
	for len(p.buckets) <= idx {
		p.buckets = append(p.buckets, bucketAcc{})
	}
	return &p.buckets[idx]
}

// split divides total across the shares proportionally to their
// token weights, exactly: every share gets the floor of its
// proportional slice and the remainder units go to the first shares
// in running-set order, one each, so the pieces always sum back to
// total. The running set is deterministic (selectStep order), so the
// attribution is too — at any parallelism, memo on or off.
func (p *Profile) split(buf int, total int64, shares []StreamShare, totTok int) []int64 {
	out := p.splitBuf[buf][:0]
	var sum int64
	for i := range shares {
		v := total * int64(shares[i].Tokens) / int64(totTok)
		out = append(out, v)
		sum += v
	}
	for i := 0; sum < total; i++ {
		out[i]++
		sum++
	}
	p.splitBuf[buf] = out
	return out
}

// Steps returns the number of steps captured so far.
func (p *Profile) Steps() int64 { return p.steps }

// Total returns the bit-exact sum of every captured per-step counter
// delta — by construction equal to the engine's whole-run aggregate
// (the reconciliation tests compare the two for equality).
func (p *Profile) Total() stats.Counters { return p.total }
