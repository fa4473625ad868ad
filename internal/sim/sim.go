// Package sim is the cycle-level simulation engine: it wires the
// vector cores, interconnect, LLC slices, MSHRs, DRAM, thread-block
// dispatcher and throttling controller into one deterministic cycle
// loop, and aggregates the statistics the paper's figures report.
//
// The engine realises the Ramulator2-derived frontend of Section 5
// with every extension the paper lists: vector cores with multiple
// instruction windows, global thread-block dispatch, sliced L2 with
// explicit request/response arbitration, and the extra cache policies.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/memreq"
	"repro/internal/memtrace"
	"repro/internal/noc"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/throttle"
	"repro/internal/vcore"
)

// Config is the full system configuration. DefaultConfig reproduces
// Table 5 of the paper.
type Config struct {
	FreqGHz float64

	NumCores  int
	NumSlices int
	LineBytes int

	// Core front-end.
	NumWindows  int
	WindowDepth int
	VectorBytes int
	EgressCap   int

	// Private L1.
	L1SizeBytes int
	L1Assoc     int

	// Shared L2 (whole cache; divided evenly across slices).
	L2SizeBytes int
	L2Assoc     int
	HitLatency  int
	DataLatency int
	MSHRLatency int
	MSHREntries int // per slice
	MSHRTargets int
	ReqQSize    int
	RespQSize   int
	HitBufSize  int
	WBBufSize   int

	NoC noc.Config

	DRAMChannels int
	// MemRespLatency is the on-chip transit time from the memory
	// controller back to the LLC slice (Fig. 3: MCs sit across the
	// interconnect from the L2 slices). It extends the lifetime of an
	// MSHR entry and is what makes miss-handling throughput — not raw
	// DRAM bandwidth — the binding constraint, the regime Section 6.3
	// studies.
	MemRespLatency int

	// Policies.
	Arbiter  arbiter.Kind
	Throttle string // "none", "dyncta", "lcs", "dynmg", "static:N"
	// DynMG / DYNCTA optionally override the controller parameters
	// (nil = package defaults, i.e. the swept optima of Tables 2–4).
	DynMG  *throttle.DynMGParams
	DYNCTA *throttle.DYNCTAParams

	// Scheduler selects thread-block dispatch: "affinity" (default),
	// "global", or "partitioned" (the no-migration ablation).
	Scheduler string

	// ReqRespArb forces the request-response arbitration flavour on
	// every slice: "" (policy default), "resp-first" or "req-first"
	// (Section 3.3 evaluates both).
	ReqRespArb string
	// Bypass enables the fill bypass manager (disabled in the paper's
	// evaluation for fairness; an ablation knob here).
	Bypass bool

	// MaxCycles aborts a run that fails to drain (deadlock guard).
	// Zero means a generous automatic bound.
	MaxCycles int64

	// Reference forces the retained per-cycle reference loop instead
	// of the event-horizon fast-forward engine. Both produce
	// bit-identical Cycles, Counters and Metrics (the equivalence
	// tests assert it); the reference loop is the ground truth and a
	// debugging aid, the fast-forward engine is the default.
	Reference bool
}

// DefaultConfig returns the simulated system of Table 5: 1.96 GHz, 16
// cores (vector width 128 B, 4 instruction windows of depth 128,
// 64 KB streaming write-through L1), 16 MB L2 in 8 slices (8-way,
// hit latency 3, data latency 25, MSHR 6x8 per slice, mshr latency 5,
// request queue 12, response queue 64, response-queue-first), and
// 4-channel DDR5-3200.
func DefaultConfig() Config {
	return Config{
		FreqGHz:        1.96,
		NumCores:       16,
		NumSlices:      8,
		LineBytes:      64,
		NumWindows:     4,
		WindowDepth:    128,
		VectorBytes:    128,
		EgressCap:      16,
		L1SizeBytes:    64 << 10,
		L1Assoc:        8,
		L2SizeBytes:    16 << 20,
		L2Assoc:        8,
		HitLatency:     3,
		DataLatency:    25,
		MSHRLatency:    5,
		MSHREntries:    6,
		MSHRTargets:    8,
		ReqQSize:       12,
		RespQSize:      64,
		HitBufSize:     32,
		WBBufSize:      8,
		NoC:            noc.DefaultConfig(),
		DRAMChannels:   4,
		MemRespLatency: 30,
		Arbiter:        arbiter.FCFS,
		Throttle:       "none",
		Scheduler:      "affinity",
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.FreqGHz <= 0:
		return fmt.Errorf("sim: FreqGHz must be positive, got %g", c.FreqGHz)
	case c.NumCores <= 0:
		return fmt.Errorf("sim: NumCores must be positive, got %d", c.NumCores)
	case c.NumSlices <= 0 || c.NumSlices&(c.NumSlices-1) != 0:
		return fmt.Errorf("sim: NumSlices must be a positive power of two, got %d", c.NumSlices)
	case c.L2SizeBytes%c.NumSlices != 0:
		return fmt.Errorf("sim: L2SizeBytes %d not divisible by %d slices", c.L2SizeBytes, c.NumSlices)
	}
	switch c.Scheduler {
	case "", "affinity", "global", "partitioned":
	default:
		return fmt.Errorf("sim: unknown scheduler %q", c.Scheduler)
	}
	return nil
}

// Result is the outcome of one simulation run.
type Result struct {
	Cycles   int64
	Counters stats.Counters
	Metrics  stats.Metrics
	// Steals counts thread-block migrations (affinity scheduler).
	Steals int64
}

// Engine is one configured simulation instance: build, Run, read the
// Result — then either discard it or rewind it onto the next trace
// with Reset (the serving engine's per-token-step fast path).
type Engine struct {
	cfg      Config
	cores    []*vcore.Core
	slices   []*llc.Slice
	net      *noc.NoC
	mem      *dram.DRAM
	pool     sched.Pool
	reqPool  *memreq.Pool
	ctrl     throttle.Controller
	ctr      stats.Counters
	progress []int64
	signals  throttle.Signals
	groupSz  int
	autoMax  int64
	// respInFlight models the MC→slice transit of fill data. Every fill
	// takes the same MemRespLatency, so it is a FIFO in arrival order.
	respInFlight ring.Queue[dram.Response]

	// Fast-forward state. The wake calendar holds each component's next
	// due cycle; a ticked cycle visits only the components due in it.
	// A component is due at its own NextEvent and whenever an external
	// input can change what its tick does: a flit reaching the head of
	// its path (the NoC's Waker), freed DRAM queue space (memWait), a
	// DRAM fill, or a new thread-block limit. Freed ingress space is the
	// one input checked at the visit instead: the cores whose egress head
	// targets a path that gained space (egRetry) are visited next cycle
	// only while the space is still there when their turn comes.
	cal         calendar
	coreLimit   []int    // limit last published to each core
	coreEgSlice []int    // each core's egress head slice, -1 when empty
	egWait      []bitset // per slice: cores whose egress head targets it
	egRetry     bitset   // cores whose egress path gained space last cycle
	memWait     bitset   // slices gated on DRAM channel-queue space
	// ctrlWake is the controller's next output-change boundary; until it
	// arrives the per-core limits can change only through ObserveTB.
	ctrlWake int64

	// Debt-based settlement: components do no per-cycle counter work
	// while they are not due. coreApplied/sliceApplied record the last
	// cycle whose counter effects have been applied for each component;
	// the gap to the current cycle is settled from the component's
	// frozen stall profile when it is next visited, at a controller
	// boundary (the controller reads the counters), or at the end of
	// the run.
	coreApplied  []int64
	sliceApplied []int64
}

// New builds an engine for a trace. groupSize is the workload's G
// (query heads per group), which the affinity dispatcher uses for the
// spatial mapping.
func New(cfg Config, trace *memtrace.Trace, groupSize int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trace == nil || len(trace.Blocks) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	e := &Engine{cfg: cfg, reqPool: &memreq.Pool{}, groupSz: groupSize}
	e.progress = make([]int64, cfg.NumCores)
	e.cal = newCalendar(cfg.NumCores, cfg.NumSlices)
	e.coreLimit = make([]int, cfg.NumCores)
	e.coreEgSlice = make([]int, cfg.NumCores)
	e.egWait = make([]bitset, cfg.NumSlices)
	for i := range e.egWait {
		e.egWait[i] = newBitset(cfg.NumCores)
	}
	e.egRetry = newBitset(cfg.NumCores)
	e.memWait = newBitset(cfg.NumSlices)
	e.coreApplied = make([]int64, cfg.NumCores)
	e.sliceApplied = make([]int64, cfg.NumSlices)
	e.rewind()
	// Deadlock guard: even a fully serialised run (every line access
	// taking a whole DRAM round trip, no overlap at all) finishes well
	// within this bound.
	linesPerVec := int64(cfg.VectorBytes/cfg.LineBytes + 1)
	e.autoMax = 400*int64(trace.TotalMemInsts())*linesPerVec + 1_000_000

	var err error
	if e.ctrl, err = newController(cfg); err != nil {
		return nil, err
	}

	e.net, err = noc.New(cfg.NoC, cfg.NumCores, cfg.NumSlices, &e.ctr)
	if err != nil {
		return nil, err
	}
	if !cfg.Reference {
		e.net.SetWaker((*nocWaker)(e))
	}

	dcfg := dram.NewDDR5_3200(cfg.FreqGHz, cfg.DRAMChannels)
	dcfg.LineBytes = cfg.LineBytes
	// Channel bits sit just above the slice-interleave bits.
	bits := 0
	for s := cfg.NumSlices; s > 1; s >>= 1 {
		bits++
	}
	dcfg.ChannelBitPos = bits
	e.mem, err = dram.New(dcfg, &e.ctr)
	if err != nil {
		return nil, err
	}

	l1cfg := cache.Config{
		SizeBytes: cfg.L1SizeBytes,
		LineBytes: cfg.LineBytes,
		Assoc:     cfg.L1Assoc,
		Alloc:     cache.AllocOnFill,
		Write:     cache.WritePolicy{WriteAllocate: false, WriteBack: false},
		Streaming: true,
	}
	e.cores = make([]*vcore.Core, cfg.NumCores)
	for i := range e.cores {
		core, err := vcore.New(vcore.Config{
			ID:          i,
			NumWindows:  cfg.NumWindows,
			WindowDepth: cfg.WindowDepth,
			VectorBytes: cfg.VectorBytes,
			LineBytes:   cfg.LineBytes,
			EgressCap:   cfg.EgressCap,
			NumSlices:   cfg.NumSlices,
			L1:          l1cfg,
		}, e.net, e.reqPool, &e.ctr)
		if err != nil {
			return nil, err
		}
		e.cores[i] = core
	}

	e.slices = make([]*llc.Slice, cfg.NumSlices)
	for i := range e.slices {
		s, err := llc.New(sliceConfig(cfg, i), e.net, e.mem, e.reqPool, &e.ctr)
		if err != nil {
			return nil, err
		}
		s.SetGlobalProgress(e.progress)
		e.slices[i] = s
	}

	if e.pool, err = newPool(cfg, trace, groupSize); err != nil {
		return nil, err
	}

	e.signals = throttle.Signals{
		NumCores:    cfg.NumCores,
		MaxWindows:  cfg.NumWindows,
		CacheStall:  func() int64 { return e.ctr.CacheStall },
		SliceCycles: func() int64 { return e.ctr.SliceCycles },
		CoreMem:     func(core int) int64 { return e.cores[core].CMem },
		CoreIdle:    func(core int) int64 { return e.cores[core].CIdle },
		Progress:    func(core int) int64 { return e.progress[core] },
	}

	// Every request lives in a core egress queue, the interconnect, a
	// slice request queue or a slice pipeline; pre-filling the free
	// list to that bound keeps the steady-state loop allocation-free.
	e.reqPool.Prealloc(cfg.NumCores*cfg.EgressCap +
		cfg.NumSlices*(cfg.NoC.SliceBufCap+cfg.ReqQSize+cfg.HitLatency+cfg.MSHRLatency+2))
	return e, nil
}

// newController builds the throttling controller cfg names, with its
// DynMG or DYNCTA parameter override when one is set.
func newController(cfg Config) (throttle.Controller, error) {
	switch {
	case cfg.Throttle == "dynmg" && cfg.DynMG != nil:
		return throttle.NewDynMG(cfg.NumCores, cfg.NumWindows, *cfg.DynMG), nil
	case cfg.Throttle == "dyncta" && cfg.DYNCTA != nil:
		return throttle.NewDYNCTA(cfg.NumCores, cfg.NumWindows, *cfg.DYNCTA), nil
	}
	return throttle.ParseName(cfg.Throttle, cfg.NumCores, cfg.NumWindows)
}

// sliceConfig is LLC slice i of the machine cfg describes.
func sliceConfig(cfg Config, i int) llc.Config {
	return llc.Config{
		Index:     i,
		NumSlices: cfg.NumSlices,
		NumCores:  cfg.NumCores,
		Cache: cache.Config{
			SizeBytes: cfg.L2SizeBytes / cfg.NumSlices,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L2Assoc,
			Alloc:     cache.AllocOnFill,
			Write:     cache.WritePolicy{WriteAllocate: true, WriteBack: true},
		},
		HitLatency:      cfg.HitLatency,
		DataLatency:     cfg.DataLatency,
		MSHRLatency:     cfg.MSHRLatency,
		MSHREntries:     cfg.MSHREntries,
		MSHRTargets:     cfg.MSHRTargets,
		ReqQSize:        cfg.ReqQSize,
		RespQSize:       cfg.RespQSize,
		HitBufSize:      cfg.HitBufSize,
		WBBufSize:       cfg.WBBufSize,
		Policy:          cfg.Arbiter,
		ReqRespOverride: cfg.ReqRespArb,
		Bypass:          cfg.Bypass,
		Reference:       cfg.Reference,
	}
}

// newPool builds the thread-block dispatcher cfg.Scheduler names.
func newPool(cfg Config, trace *memtrace.Trace, groupSize int) (sched.Pool, error) {
	switch cfg.Scheduler {
	case "global":
		return sched.NewGlobalPool(trace), nil
	case "partitioned":
		return sched.NewPartitionedPool(trace, cfg.NumCores)
	}
	return sched.NewAffinityPool(trace, cfg.NumCores, groupSize, cfg.MSHRTargets+1)
}

// Reset rewinds the engine onto a new trace under the configuration it
// runs: ResetTo with that configuration, which rebuilds nothing, so a
// used engine rewound onto a trace it has run allocates nothing to run
// it again.
func (e *Engine) Reset(trace *memtrace.Trace, groupSize int) error {
	return e.ResetTo(e.cfg, trace, groupSize)
}

// ResetTo rewinds the engine onto a new trace under cfg without
// rebuilding the machine: counters zeroed, queues drained, component
// state (cores, LLC slices, interconnect, DRAM channels, throttle
// controller) and the memreq free list reused in place, and the
// dispatcher reloaded. cfg may differ from the engine's configuration
// in its policies, loop and L2 size only: a new Throttle, DynMG or
// DYNCTA rebuilds the throttle controller, a new Arbiter, ReqRespArb,
// Bypass or Reference swaps each slice's arbiter in place (policy,
// request-response flavour and MA/BMA filter tracking), a new
// L2SizeBytes replaces each slice's storage, a new Scheduler rebuilds
// the dispatcher, and MaxCycles is free. Every other field describes
// the machine itself: ResetTo rejects a change to one before it
// changes anything, and the caller builds a new engine with New.
//
// A ResetTo engine run is bit-identical to a fresh New(cfg, trace,
// groupSize) run (the reset equivalence tests assert it across the
// policy, arbiter, scheduler and L2-size matrix), which is what lets
// the serving layer rewind pooled step simulators, and the experiment
// grids lend one engine to cell after cell, instead of constructing
// and discarding a whole machine per step or cell.
func (e *Engine) ResetTo(cfg Config, trace *memtrace.Trace, groupSize int) error {
	if trace == nil || len(trace.Blocks) == 0 {
		return fmt.Errorf("sim: empty trace")
	}
	if groupSize <= 0 {
		return fmt.Errorf("sim: groupSize must be positive, got %d", groupSize)
	}
	if cfg != e.cfg {
		if err := e.reconfigure(cfg); err != nil {
			return err
		}
	}
	e.groupSz = groupSize
	e.ctr = stats.Counters{}
	for i := range e.progress {
		e.progress[i] = 0
	}
	e.rewind()
	linesPerVec := int64(e.cfg.VectorBytes/e.cfg.LineBytes + 1)
	e.autoMax = 400*int64(trace.TotalMemInsts())*linesPerVec + 1_000_000

	e.ctrl.Reset()
	e.net.Reset()
	e.mem.Reset()
	for _, c := range e.cores {
		c.Reset()
	}
	for _, s := range e.slices {
		s.Reset()
	}
	switch p := e.pool.(type) {
	case *sched.AffinityPool:
		p.Reload(trace, groupSize, e.cfg.MSHRTargets+1)
	case *sched.GlobalPool:
		p.Reload(trace)
	case *sched.PartitionedPool:
		p.Reload(trace)
	default: // the scheduler changed
		var err error
		if e.pool, err = newPool(e.cfg, trace, groupSize); err != nil {
			return err
		}
	}

	e.respInFlight.Clear()
	return nil
}

// reconfigure re-aims the engine at cfg, a configuration of the same
// machine (see ResetTo). It checks all of cfg first, slice storage
// geometry included, so it fails before it changes anything.
func (e *Engine) reconfigure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	machine := cfg
	machine.Throttle, machine.DynMG, machine.DYNCTA = e.cfg.Throttle, e.cfg.DynMG, e.cfg.DYNCTA
	machine.Arbiter, machine.ReqRespArb, machine.Bypass = e.cfg.Arbiter, e.cfg.ReqRespArb, e.cfg.Bypass
	machine.L2SizeBytes, machine.Scheduler = e.cfg.L2SizeBytes, e.cfg.Scheduler
	machine.Reference, machine.MaxCycles = e.cfg.Reference, e.cfg.MaxCycles
	if machine != e.cfg {
		return fmt.Errorf("sim: ResetTo cannot change the machine, only its policies, scheduler, L2 size, Reference and MaxCycles; build a new Engine")
	}
	if err := sliceConfig(cfg, 0).Validate(); err != nil {
		return err
	}
	ctrl := e.ctrl
	if cfg.Throttle != e.cfg.Throttle || cfg.DynMG != e.cfg.DynMG || cfg.DYNCTA != e.cfg.DYNCTA {
		var err error
		if ctrl, err = newController(cfg); err != nil {
			return err
		}
	}

	e.ctrl = ctrl
	for i, s := range e.slices {
		if err := s.Reconfigure(sliceConfig(cfg, i)); err != nil {
			return err
		}
	}
	if cfg.Reference != e.cfg.Reference {
		if cfg.Reference {
			e.net.SetWaker(nil)
		} else {
			e.net.SetWaker((*nocWaker)(e))
		}
	}
	if cfg.Scheduler != e.cfg.Scheduler {
		e.pool = nil // ResetTo builds the new dispatcher on the trace
	}
	e.cfg = cfg
	return nil
}

// rewind puts the fast-forward state in its just-constructed form:
// every component due at cycle 0, nothing settled, no limit published
// and no core or slice waiting on an external input.
func (e *Engine) rewind() {
	e.cal.reset()
	for i := range e.coreLimit {
		e.coreLimit[i] = -1
		e.coreEgSlice[i] = -1
		e.coreApplied[i] = -1
	}
	for i := range e.sliceApplied {
		e.sliceApplied[i] = -1
	}
	for _, w := range e.egWait {
		clear(w)
	}
	clear(e.egRetry)
	clear(e.memWait)
	e.ctrlWake = 0
}

// Run executes the cycle loop to completion and returns the collected
// statistics. By default it uses the event-horizon fast-forward
// engine: a ticked cycle visits only the components its wake calendar
// has due, and after each tick the clock jumps straight to the next
// cycle at which anything can change — the earliest component due
// cycle, DRAM timing edge, fill arrival or throttle period boundary.
// The per-cycle counters that components accumulate while they are not
// visited (idle/stall classification, slice occupancy integrals,
// backpressure and reservation retries) are applied in bulk.
// Cfg.Reference selects the retained per-cycle reference loop, which
// ticks every component every cycle; both produce bit-identical
// results.
func (e *Engine) Run() (Result, error) {
	maxCycles := e.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = e.autoMax
	}
	observer, _ := e.ctrl.(throttle.TBObserver)
	fastForward := !e.cfg.Reference
	e.mem.SetLazy(fastForward)

	now := int64(0)
	for ; now < maxCycles; now++ {
		if fastForward {
			e.tick(now, observer)
		} else {
			e.tickReference(now, observer)
		}

		// Drain check, amortised.
		if now&63 == 0 && e.drained() {
			break
		}
		if !fastForward {
			continue
		}
		h := e.horizon(now)
		if h <= now+1 {
			continue
		}
		if e.drained() {
			// State is frozen across the dead window, so the reference
			// loop would keep ticking idle cycles only until its next
			// 64-aligned drain check; stop the jump there.
			if b := (now + 64) &^ 63; h > b {
				h = b
			}
		}
		if h > maxCycles {
			h = maxCycles
		}
		// The skipped cycles need no explicit work at all: every
		// component's settlement debt grows implicitly with the clock.
		now = h - 1
	}
	if now >= maxCycles {
		return Result{}, fmt.Errorf("sim: exceeded MaxCycles=%d without draining (deadlock?)", maxCycles)
	}
	if fastForward {
		e.settleAll(now)
	}

	e.ctr.Cycles = now
	res := Result{
		Cycles:   now,
		Counters: e.ctr,
		Metrics:  e.ctr.Derive(e.cfg.FreqGHz, e.cfg.LineBytes, e.cfg.NumCores),
	}
	if ap, ok := e.pool.(*sched.AffinityPool); ok {
		res.Steals = ap.Steals
	}
	return res, nil
}

// tickReference is the per-cycle reference loop: the controller, every
// core, every slice and the memory system, every cycle.
func (e *Engine) tickReference(now int64, observer throttle.TBObserver) {
	e.ctrl.Tick(now, &e.signals)
	for i := range e.cores {
		e.tickCore(i, now, observer)
	}
	for i, s := range e.slices {
		e.net.DeliverReqs(i, now, s.Accept)
		s.Tick(now)
	}
	e.mem.Tick(now)
	e.collectFills(now)
}

// tick is one fast-forward cycle: the controller at its boundaries,
// then the cores and slices the calendar has due, in index order, then
// the memory system. A component that is not due is provably
// state-frozen this cycle; its counter effects are settled in bulk
// when it is next visited.
func (e *Engine) tick(now int64, observer throttle.TBObserver) {
	if now >= e.ctrlWake {
		e.settleAll(now - 1) // the controller reads counters this cycle
		e.ctrl.Tick(now, &e.signals)
		e.ctrlWake = e.ctrl.NextEvent(now)
		for i := range e.cores {
			if e.ctrl.MaxTB(i) != e.coreLimit[i] {
				e.cal.cores.wake(i, now)
			}
		}
	}

	for w := range e.cal.cores.words {
		run, retry := e.cal.cores.take(now, w), e.egRetry[w]
		e.egRetry[w] = 0
		for all := run | retry; all != 0; all &= all - 1 {
			k := bits.TrailingZeros64(all)
			i := w<<6 | k
			if run&(1<<k) == 0 && !e.net.CanSendReq(e.coreEgSlice[i]) {
				continue // a lower-index core took the space first
			}
			e.visitCore(i, now, observer)
		}
	}
	for w := range e.cal.slices.words {
		for run := e.cal.slices.take(now, w); run != 0; run &= run - 1 {
			e.visitSlice(w<<6|bits.TrailingZeros64(run), now)
		}
	}

	e.mem.Tick(now)
	if e.mem.ConsumeFreed() {
		e.cal.slices.wakeAll(e.memWait, now+1)
	}
	e.collectFills(now)
}

// tickCore runs one core cycle: publish its thread-block limit, hand
// it the responses that have arrived, tick it and report its retired
// blocks to an observing controller. It reports whether an
// observation changed the core's limit.
func (e *Engine) tickCore(i int, now int64, observer throttle.TBObserver) (limitChanged bool) {
	c := e.cores[i]
	limit := e.ctrl.MaxTB(i)
	c.SetMaxTB(limit)
	e.coreLimit[i] = limit
	e.net.DeliverResps(i, now, c.OnDelivery)
	c.Tick(now, e.pool)
	if observer == nil {
		c.DrainCompletions()
		return false
	}
	for _, done := range c.DrainCompletions() {
		observer.ObserveTB(done.Core, done.BusyCycles, done.TotalCycles)
	}
	return e.ctrl.MaxTB(i) != limit
}

// visitCore ticks a core after settling its unvisited cycles, then
// re-arms its calendar entry: its own next event, its next response
// arrival, and — when an observation changed its limit — the next
// cycle. A core whose egress head waits on a full path is retried by
// the slice that frees it.
func (e *Engine) visitCore(i int, now int64, observer throttle.TBObserver) {
	e.cal.cores.due[i] = math.MaxInt64
	e.settleCore(i, now-1)
	e.coreApplied[i] = now
	limitChanged := e.tickCore(i, now, observer)
	c := e.cores[i]
	next := c.NextEvent(now)
	if limitChanged {
		next = now + 1
	}
	if a := e.net.RespFrontArrive(i); a < next {
		next = a
	}
	e.cal.cores.wake(i, max(next, now+1))
	if sl := c.EgressHeadSlice(); sl != e.coreEgSlice[i] {
		if old := e.coreEgSlice[i]; old >= 0 {
			e.egWait[old].put(i, false)
		}
		if sl >= 0 {
			e.egWait[sl].put(i, true)
		}
		e.coreEgSlice[i] = sl
	}
}

// visitSlice ticks a due slice after settling its unvisited cycles,
// retries the cores its delivery unblocked and re-arms its calendar
// entry: its own next event, and its head request's arrival when the
// request queue can take it.
func (e *Engine) visitSlice(i int, now int64) {
	e.cal.slices.due[i] = math.MaxInt64
	e.settleSlice(i, now-1)
	e.sliceApplied[i] = now
	s := e.slices[i]
	if e.net.DeliverReqs(i, now, s.Accept) {
		// Cores tick before slices: the freed space is usable next cycle.
		for w, b := range e.egWait[i] {
			e.egRetry[w] |= b
		}
	}
	s.Tick(now)
	next := s.NextEvent(now)
	if !s.ReqQFull() {
		if a := e.net.ReqFrontArrive(i); a < next {
			next = a
		}
	}
	e.cal.slices.wake(i, max(next, now+1))
	e.memWait.put(i, s.WaitsMem())
}

// collectFills starts the MC→slice transit of the DRAM reads completed
// this cycle and hands the slices the fills that arrive.
func (e *Engine) collectFills(now int64) {
	for _, resp := range e.mem.Responses(now) {
		resp.Done = now + int64(e.cfg.MemRespLatency)
		e.respInFlight.Push(resp)
	}
	for e.respInFlight.Len() > 0 && e.respInFlight.Front().Done <= now {
		resp := e.respInFlight.Front()
		e.slices[resp.Slice].OnDRAMResponse(*resp, now)
		e.cal.slices.wake(resp.Slice, now+1)
		e.respInFlight.PopFront()
	}
}

// nocWaker puts the NoC's head-arrival notices on the engine's wake
// calendar.
type nocWaker Engine

// ReqDue wakes the slice when the request arrives, unless its request
// queue is full (the slice's own visit that drains the queue re-arms
// it). Cores send before the slices tick, so a request sent and
// arriving in the same cycle is delivered in that cycle.
func (w *nocWaker) ReqDue(slice int, _, at int64) {
	if !w.slices[slice].ReqQFull() {
		w.cal.slices.wake(slice, at)
	}
}

// RespDue wakes the core when the response arrives. Slices send after
// every core has ticked, so a response sent and arriving in the same
// cycle is seen in the next.
func (w *nocWaker) RespDue(core int, now, at int64) {
	w.cal.cores.wake(core, max(at, now+1))
}

// settleCore applies the counter effects of the core's unapplied
// skipped cycles up to and including `through`. Classification uses
// the first unapplied cycle, which provably lies inside the frozen
// window.
func (e *Engine) settleCore(i int, through int64) {
	if d := through - e.coreApplied[i]; d > 0 {
		e.cores[i].ApplyStallTicks(e.coreApplied[i]+1, d)
	}
	e.coreApplied[i] = through
}

// settleSlice applies the counter effects of the slice's unapplied
// skipped cycles up to and including `through`, including the
// per-cycle ingress queue-delay of an arrived head-of-line request
// blocked on the full request queue (both frozen across the window).
func (e *Engine) settleSlice(i int, through int64) {
	applied := e.sliceApplied[i]
	if d := through - applied; d > 0 {
		s := e.slices[i]
		s.ApplyStallTicks(applied+1, d)
		if s.ReqQFull() {
			if a := e.net.ReqFrontArrive(i); a <= through {
				from := applied
				if a-1 > from {
					from = a - 1
				}
				e.ctr.NetQueueDelay += through - from
			}
		}
	}
	e.sliceApplied[i] = through
}

// settleAll settles every core and slice through the given cycle.
func (e *Engine) settleAll(through int64) {
	for i := range e.cores {
		e.settleCore(i, through)
	}
	for i := range e.slices {
		e.settleSlice(i, through)
	}
}

// horizon returns the earliest cycle after now at which any component
// may change state — the event horizon. A return of now+1 means the
// next cycle must be ticked normally; anything later proves the
// intervening cycles dead. The cheap checks come first, so busy phases
// pay almost nothing for it.
func (e *Engine) horizon(now int64) int64 {
	next := now + 1
	h := e.ctrlWake
	if h <= next || e.cal.cores.busy(next) || e.cal.slices.busy(next) || e.egRetry.any() {
		return next
	}
	if t := e.mem.NextEvent(now); t < h {
		if t <= next {
			return next
		}
		h = t
	}
	h = min(h, e.cal.cores.next(), e.cal.slices.next())
	if e.respInFlight.Len() > 0 {
		h = min(h, e.respInFlight.Front().Done) // post-tick, Done > now always
	}
	return h
}

// drained reports whether all work has left the system.
func (e *Engine) drained() bool {
	if e.pool.Remaining() > 0 || e.net.Pending() > 0 || e.mem.Pending() > 0 || e.respInFlight.Len() > 0 {
		return false
	}
	for _, c := range e.cores {
		if c.Busy() {
			return false
		}
	}
	for _, s := range e.slices {
		if s.Busy() {
			return false
		}
	}
	return true
}

// Cores exposes the core models (tests, diagnostics).
func (e *Engine) Cores() []*vcore.Core { return e.cores }

// Slices exposes the LLC slices (tests, diagnostics).
func (e *Engine) Slices() []*llc.Slice { return e.slices }

// Controller exposes the throttling controller (tests, diagnostics).
func (e *Engine) Controller() throttle.Controller { return e.ctrl }
