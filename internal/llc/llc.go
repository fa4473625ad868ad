// Package llc implements one last-level-cache slice and its arbiter —
// the hardware of Fig. 4 in the paper. A slice owns a request queue,
// a response queue, a tag+MSHR lookup pipeline, cache storage, a
// writeback buffer, and the speculative structures (hit_buffer,
// sent_reqs) the MSHR-aware arbitration policies consult.
//
// Flow of a request (numbers match Fig. 4):
//
//	(1) the interconnect delivers the request into the request queue;
//	(2) the arbiter selects a request (policy-dependent) and the
//	    pipeline performs the cache lookup after hit-latency cycles;
//	    hits are answered to the core after data-latency more cycles;
//	(3) misses consult the MSHR after mshr-latency cycles: merge into
//	    a pending entry, or open a new entry and send to DRAM —
//	    stalling the whole pipeline when the MSHR is exhausted;
//	(4) DRAM responses release the MSHR entry, forward data directly
//	    to the waiting cores (4'), and
//	(5) enqueue the line into the response queue for installation
//	    into cache storage, arbitrating with requests for the tag
//	    port (response-queue-first by default, Section 3.3).
package llc

import (
	"fmt"
	"math"

	"repro/internal/arbiter"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/linetab"
	"repro/internal/memreq"
	"repro/internal/mshr"
	"repro/internal/noc"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Config parameterises one slice (Table 5 defaults come from the sim
// package's DefaultConfig).
type Config struct {
	Index     int // slice index
	NumSlices int // total slices (for set-index derivation)
	NumCores  int

	Cache cache.Config // per-slice storage geometry

	HitLatency  int // tag lookup latency (3)
	DataLatency int // extra cycles to return hit data (25)
	MSHRLatency int // MSHR lookup latency on a miss (5)
	MSHREntries int // numEntry per slice (6)
	MSHRTargets int // numTarget per entry (8)
	ReqQSize    int // request queue depth (12)
	RespQSize   int // response queue depth (64)
	HitBufSize  int // hit_buffer FIFO depth
	WBBufSize   int // writeback buffer depth

	Policy arbiter.Kind

	// ReqRespOverride forces the request-response arbitration flavour
	// regardless of the policy's default ("" = policy default).
	// Section 3.3 evaluates both flavours and reports similar gains;
	// the override exists to reproduce that comparison.
	ReqRespOverride string // "", "resp-first", "req-first"

	// Bypass enables the Fig. 4 step-(5) bypass manager: fills whose
	// line served a single read requester are not installed in cache
	// storage (no observed sharing ⇒ no expected reuse). The paper
	// disables bypassing for fairness; the knob exists for ablation.
	Bypass bool

	// Reference makes MA and BMA classify every queued request from
	// scratch on each selection instead of consulting the
	// classification filter first; the engine's per-cycle reference
	// loop sets it (sim.Config.Reference).
	Reference bool
}

// Validate checks slice parameters.
func (c Config) Validate() error {
	switch {
	case c.NumSlices <= 0 || c.NumSlices&(c.NumSlices-1) != 0:
		return fmt.Errorf("llc: NumSlices must be a positive power of two, got %d", c.NumSlices)
	case c.Index < 0 || c.Index >= c.NumSlices:
		return fmt.Errorf("llc: Index %d out of range [0,%d)", c.Index, c.NumSlices)
	case c.NumCores <= 0:
		return fmt.Errorf("llc: NumCores must be positive, got %d", c.NumCores)
	case c.HitLatency <= 0 || c.DataLatency < 0 || c.MSHRLatency <= 0:
		return fmt.Errorf("llc: latencies must be positive (hit=%d data=%d mshr=%d)",
			c.HitLatency, c.DataLatency, c.MSHRLatency)
	case c.MSHREntries <= 0 || c.MSHRTargets <= 0:
		return fmt.Errorf("llc: MSHR geometry must be positive (%dx%d)", c.MSHREntries, c.MSHRTargets)
	case c.ReqQSize <= 0 || c.RespQSize <= 0 || c.HitBufSize <= 0 || c.WBBufSize <= 0:
		return fmt.Errorf("llc: queue sizes must be positive")
	}
	switch c.ReqRespOverride {
	case "", "resp-first", "req-first":
	default:
		return fmt.Errorf("llc: unknown ReqRespOverride %q", c.ReqRespOverride)
	}
	return c.Cache.Validate()
}

type pipePhase uint8

const (
	phaseLookup pipePhase = iota
	phaseMSHR
)

type pipeEntry struct {
	req   *memreq.Request
	ready int64 // cycle the current phase completes
	phase pipePhase
}

type fill struct {
	line   uint64
	dirty  bool
	shared bool // more than one requester waited on the line
}

type hitResp struct {
	del   noc.Delivery
	ready int64
}

// Slice is one LLC slice plus its arbiter.
type Slice struct {
	cfg    Config
	store  *cache.Cache
	mshr   *mshr.MSHR
	policy arbiter.Policy

	reqQ  *ring.Ring[*memreq.Request]
	respQ *ring.Ring[fill]
	wbBuf *ring.Ring[uint64]
	pipe  *ring.Ring[pipeEntry]

	hitBuf *arbiter.HitBuffer
	sent   *arbiter.SentReqs
	// filter tracks the lines MA and BMA can class as anything but
	// "other" (see arbiter.Filter); the hit buffer and sent_reqs keep
	// it current themselves, the slice adds and removes MSHR entries.
	// tracked reports whether the policy keeps it: the other policies
	// never read it, so they pay nothing for it.
	filter  arbiter.Filter
	tracked bool

	// served is the per-core progress counter of this slice's arbiter
	// (cnt0..cntN in Fig. 4).
	served []int64
	// globalProgress, when non-nil, is the engine-wide progress array
	// shared with the throttling controller.
	globalProgress []int64

	// pendingFills holds DRAM responses whose release/forward phase
	// could not run yet (response queue full).
	pendingFills []fill
	// respLines counts lines resident in the response queue awaiting
	// installation; a demand lookup for such a line is served from the
	// response queue (the data is already on-chip) instead of opening
	// a fresh MSHR entry.
	respLines linetab.Counts
	// hitResps are hit responses waiting out the data-array latency;
	// hitRespMin is the earliest ready cycle among them (MaxInt64 when
	// empty), so cycles where none are due skip the delivery check.
	hitResps   ring.Queue[hitResp]
	hitRespMin int64
	// deferred are MSHR entries whose DRAM read could not be enqueued
	// immediately (channel queue full); retried every cycle.
	deferred []uint64

	altTurn bool // COBRRA alternation state when the response queue is full
	// respMode is the effective request-response arbitration flavour,
	// resolved with the policy (policy default + override).
	respMode arbiter.RespArb

	net  *noc.NoC
	mem  *dram.DRAM
	pool *memreq.Pool
	ctr  *stats.Counters

	// Bypasses counts fills the bypass manager kept out of storage.
	Bypasses int64

	// arbCtx is the reusable arbiter selection context (the closures
	// capture only the slice, so one instance serves every admit).
	arbCtx arbiter.Context

	// stallProfile caches the per-cycle counter deltas of a blocked
	// tick so the engine can apply a skipped cycle in a handful of
	// adds; rebuilt lazily after every real tick.
	profileValid bool
	profReqQFull bool
	profStalled  bool
	profUsed     int64
}

// New builds a slice.
func New(cfg Config, net *noc.NoC, mem *dram.DRAM, pool *memreq.Pool, ctr *stats.Counters) (*Slice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	store, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	m, err := mshr.New(cfg.MSHREntries, cfg.MSHRTargets)
	if err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	if pool == nil {
		pool = &memreq.Pool{}
	}
	s := &Slice{
		cfg:        cfg,
		store:      store,
		mshr:       m,
		reqQ:       ring.New[*memreq.Request](cfg.ReqQSize),
		respQ:      ring.New[fill](cfg.RespQSize),
		wbBuf:      ring.New[uint64](cfg.WBBufSize),
		pipe:       ring.New[pipeEntry](cfg.HitLatency + cfg.MSHRLatency + 2),
		served:     make([]int64, cfg.NumCores),
		respLines:  linetab.NewCounts(cfg.RespQSize),
		hitRespMin: math.MaxInt64,
		hitBuf:     arbiter.NewHitBuffer(cfg.HitBufSize, nil),
		sent:       arbiter.NewSentReqs(cfg.HitLatency+cfg.MSHRLatency+2, nil),
		net:        net,
		mem:        mem,
		pool:       pool,
		ctr:        ctr,
	}
	s.arbCtx = arbiter.Context{
		Served:   s.served,
		MSHRView: s.mshr.View,
		HitBuf:   s.hitBuf,
		Sent:     s.sent,
	}
	s.setPolicy()
	return s, nil
}

// newStore builds the slice's cache storage.
func newStore(cfg Config) (*cache.Cache, error) {
	store, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	// Slice-interleave bits sit below the set index: a slice sees
	// every NumSlices-th line, so drop those bits for set selection.
	for s := cfg.NumSlices; s > 1; s >>= 1 {
		store.IndexShift++
	}
	return store, nil
}

// setPolicy installs the arbiter cfg names: the policy, its
// request-response flavour under the override, and for MA and BMA the
// classification filter the hit buffer and sent_reqs keep current.
func (s *Slice) setPolicy() {
	s.policy = arbiter.New(s.cfg.Policy)
	s.respMode = s.policy.RespArb()
	switch s.cfg.ReqRespOverride {
	case "resp-first":
		s.respMode = arbiter.RespQueueFirst
	case "req-first":
		s.respMode = arbiter.ReqFirstAlternate
	}
	s.tracked = s.cfg.Policy == arbiter.MA || s.cfg.Policy == arbiter.BMA
	var filter *arbiter.Filter
	if s.tracked {
		filter = &s.filter
	}
	s.hitBuf.SetFilter(filter)
	s.sent.SetFilter(filter)
	s.arbCtx.Filter = nil
	if !s.cfg.Reference {
		s.arbCtx.Filter = filter
	}
}

// Reconfigure re-aims the slice at cfg, a configuration of the same
// slice hardware that may differ in its storage size and its
// arbitration settings (Policy, ReqRespOverride, Bypass, Reference):
// it swaps the arbiter in place and replaces the storage only when its
// geometry changes. Reset the slice before it runs again.
func (s *Slice) Reconfigure(cfg Config) error {
	if cfg.Cache != s.cfg.Cache {
		store, err := newStore(cfg)
		if err != nil {
			return err
		}
		s.store = store
	}
	s.cfg = cfg
	s.setPolicy()
	return nil
}

// SetGlobalProgress shares the engine-wide per-core progress array so
// arbiter selections feed the throttling controller's spatial
// decision.
func (s *Slice) SetGlobalProgress(p []int64) { s.globalProgress = p }

// Reset rewinds the slice to its just-constructed state, reusing every
// allocation: storage, MSHR, the queues and pipeline (any leftover
// requests are recycled into the shared pool), the speculative
// structures and the per-core progress counters. A Reset slice is
// indistinguishable from a fresh New.
func (s *Slice) Reset() {
	s.store.Reset()
	s.mshr.Reset()
	for {
		r, ok := s.reqQ.Pop()
		if !ok {
			break
		}
		s.pool.Put(r)
	}
	for {
		pe, ok := s.pipe.Pop()
		if !ok {
			break
		}
		s.pool.Put(pe.req)
	}
	s.respQ.Clear()
	s.wbBuf.Clear()
	s.hitBuf.Reset()
	s.sent.Reset()
	s.filter.Clear()
	for i := range s.served {
		s.served[i] = 0
	}
	s.pendingFills = s.pendingFills[:0]
	s.respLines.Clear()
	s.hitResps.Clear()
	s.hitRespMin = math.MaxInt64
	s.deferred = s.deferred[:0]
	s.altTurn = false
	s.Bypasses = 0
	s.profileValid = false
}

// Served returns this slice's per-core progress counters.
func (s *Slice) Served() []int64 { return s.served }

// Store exposes the cache storage (tests, diagnostics).
func (s *Slice) Store() *cache.Cache { return s.store }

// MSHR exposes the miss file (tests, diagnostics).
func (s *Slice) MSHR() *mshr.MSHR { return s.mshr }

// Policy returns the configured arbitration policy.
func (s *Slice) Policy() arbiter.Policy { return s.policy }

// Accept offers a request from the interconnect; it reports false
// when the request queue is full (backpressure into the NoC).
func (s *Slice) Accept(r *memreq.Request) bool {
	return s.reqQ.Push(r)
}

// OnDRAMResponse receives a completed fill from the memory controller.
func (s *Slice) OnDRAMResponse(resp dram.Response, now int64) {
	s.pendingFills = append(s.pendingFills, fill{line: resp.Line})
}

// ReqQFull reports whether the request queue refuses traffic; the
// interconnect's horizon uses it to classify arrived head-of-line
// flits as blocked.
func (s *Slice) ReqQFull() bool { return s.reqQ.Full() }

// pipeHeadStalled reports whether the pipeline head is a ready MSHR-
// phase request whose reservation would fail — the state in which the
// per-cycle loop burns one CacheStall per cycle retrying. Called on
// post-tick state, where a ready lookup-phase head cannot exist (the
// lookup always resolves) unless it was exposed by a pop this cycle.
func (s *Slice) pipeHeadStalled(now int64) bool {
	head, ok := s.pipe.Peek()
	if !ok || head.ready > now || head.phase != phaseMSHR {
		return false
	}
	line := head.req.Line
	if s.respLines.Has(line) || s.store.Probe(line) {
		return false // replays as a hit next cycle
	}
	if s.mshr.Lookup(line) >= 0 {
		return s.mshr.TargetsFree(line) <= 0 // merges next cycle unless the target list is full
	}
	return s.mshr.Used() >= s.cfg.MSHREntries // allocates next cycle unless no entry is free
}

// NextEvent returns a lower bound on the earliest cycle after now at
// which the slice's own tick can change state, assuming no external
// input (NoC request delivery, DRAM response) arrives before then.
// Called on post-tick state.
func (s *Slice) NextEvent(now int64) int64 {
	h := int64(math.MaxInt64)
	for _, line := range s.deferred {
		if s.mem.CanEnqueue(line) {
			return now + 1 // a deferred MSHR read can dispatch
		}
	}
	if line, ok := s.wbBuf.Peek(); ok && s.mem.CanEnqueue(line) {
		return now + 1 // a writeback can drain
	}
	if len(s.pendingFills) > 0 && !s.respQ.Full() {
		return now + 1 // a DRAM arrival can release its MSHR entry
	}
	if s.hitRespMin < h {
		h = s.hitRespMin
	}
	// Tag-port arbitration: would a request admit or a fill install run
	// next cycle?
	switch s.respMode {
	case arbiter.RespQueueFirst:
		if s.respQ.Len() > 0 {
			if !s.wbBuf.Full() {
				return now + 1 // installFill proceeds
			}
			// Install blocked behind the writeback buffer (drain case
			// handled above); requests stay locked out too.
		} else if s.reqQ.Len() > 0 && !s.pipe.Full() {
			return now + 1 // admitRequest proceeds
		}
	case arbiter.ReqFirstAlternate:
		if s.respQ.Full() {
			return now + 1 // the alternation bit flips every cycle
		}
		if s.reqQ.Len() > 0 && !s.pipe.Full() {
			return now + 1
		}
		if s.respQ.Len() > 0 && s.reqQ.Len() == 0 && !s.wbBuf.Full() {
			return now + 1
		}
	}
	// Lookup/MSHR pipeline.
	if head, ok := s.pipe.Peek(); ok {
		if head.ready > now {
			if head.ready < h {
				h = head.ready
			}
		} else if !s.pipeHeadStalled(now) {
			return now + 1 // the head resolves next cycle
		}
		// Stalled on MSHR reservation: gated on a DRAM fill releasing
		// an entry, which the memory-side horizons cover.
	}
	return h
}

// WaitsMem reports whether the slice has work gated purely on DRAM
// channel-queue space (deferred MSHR reads or buffered writebacks);
// the engine wakes such slices whenever a channel queue drains.
func (s *Slice) WaitsMem() bool {
	return len(s.deferred) > 0 || s.wbBuf.Len() > 0
}

// ApplyStallTicks bulk-applies the per-cycle occupancy and stall
// counters of `cycles` skipped dead cycles: slice-cycle and
// MSHR-occupancy accumulation, request-queue-full cycles, and (when
// the pipeline head is stalled on MSHR reservation) the cache stalls
// the reference loop counts per retry. The slice's state is frozen
// across the skipped window, so one cached snapshot covers every
// cycle.
func (s *Slice) ApplyStallTicks(now, cycles int64) {
	if !s.profileValid {
		s.profReqQFull = s.reqQ.Full()
		s.profStalled = s.pipeHeadStalled(now)
		s.profUsed = int64(s.mshr.Used())
		s.profileValid = true
	}
	s.ctr.SliceCycles += cycles
	s.ctr.MSHREntryAcc += s.profUsed * cycles
	s.ctr.MSHREntryCap += int64(s.cfg.MSHREntries) * cycles
	if s.profReqQFull {
		s.ctr.ReqQFullCycle += cycles
	}
	if s.profStalled {
		s.ctr.CacheStall += cycles
	}
}

// Busy reports whether the slice still holds in-flight state; the
// engine uses it for the drain check.
func (s *Slice) Busy() bool {
	return s.reqQ.Len() > 0 || s.respQ.Len() > 0 || s.pipe.Len() > 0 ||
		s.wbBuf.Len() > 0 || len(s.pendingFills) > 0 || s.hitResps.Len() > 0 ||
		len(s.deferred) > 0 || s.mshr.Used() > 0
}

// Tick advances the slice by one cycle.
func (s *Slice) Tick(now int64) {
	s.profileValid = false
	s.ctr.SliceCycles++
	s.ctr.MSHREntryAcc += int64(s.mshr.Used())
	s.ctr.MSHREntryCap += int64(s.cfg.MSHREntries)
	if s.reqQ.Full() {
		s.ctr.ReqQFullCycle++
	}
	if int64(s.respQ.Len()) > s.ctr.RespQPeak {
		s.ctr.RespQPeak = int64(s.respQ.Len())
	}

	s.sent.Expire(now)
	s.retryDeferred(now)
	s.drainWritebacks()
	s.processDRAMArrivals(now)
	s.deliverHitResponses(now)

	// Tag-port arbitration between the response path (fill install)
	// and the request path (new lookup), Section 3.3.
	mode := s.respMode
	doResp := false
	switch mode {
	case arbiter.RespQueueFirst:
		doResp = s.respQ.Len() > 0
	case arbiter.ReqFirstAlternate:
		if s.respQ.Full() {
			doResp = s.altTurn
			s.altTurn = !s.altTurn
		} else {
			doResp = s.respQ.Len() > 0 && s.reqQ.Len() == 0
		}
	}
	if doResp {
		s.installFill()
	} else {
		s.admitRequest(now)
	}

	s.advancePipeline(now)
}

// retryDeferred dispatches MSHR reads that previously found the DRAM
// channel queue full.
func (s *Slice) retryDeferred(now int64) {
	if len(s.deferred) == 0 {
		return
	}
	kept := s.deferred[:0]
	for _, line := range s.deferred {
		if s.mem.CanEnqueue(line) {
			_ = s.mem.Enqueue(dram.Access{Line: line, Slice: s.cfg.Index, Enqueue: now})
		} else {
			kept = append(kept, line)
		}
	}
	s.deferred = kept
}

// drainWritebacks pushes buffered dirty victims to DRAM as space
// allows.
func (s *Slice) drainWritebacks() {
	for {
		line, ok := s.wbBuf.Peek()
		if !ok || !s.mem.CanEnqueue(line) {
			return
		}
		s.wbBuf.Pop()
		s.ctr.Writebacks++
		_ = s.mem.Enqueue(dram.Access{Line: line, Write: true, Slice: s.cfg.Index})
	}
}

// processDRAMArrivals performs step (4)/(4'): release the MSHR entry,
// forward data directly to the requesting cores and queue the line
// for installation. If the response queue is full the whole phase is
// deferred — the entry stays allocated, preserving backpressure.
func (s *Slice) processDRAMArrivals(now int64) {
	if len(s.pendingFills) == 0 {
		return
	}
	kept := s.pendingFills[:0]
	for i, f := range s.pendingFills {
		if s.respQ.Full() {
			kept = append(kept, s.pendingFills[i:]...)
			break
		}
		targets, ok := s.mshr.Release(f.line)
		dirty := false
		shared := len(targets) > 1
		if ok {
			if s.tracked {
				s.filter.Remove(f.line)
			}
			for _, t := range targets {
				if t.Write {
					dirty = true
					continue
				}
				s.net.SendResp(noc.Delivery{
					Line:   f.line,
					Core:   t.Core,
					Window: t.Window,
					ReqID:  t.ReqID,
					Issue:  t.Issue,
				}, now)
			}
		}
		s.respQ.Push(fill{line: f.line, dirty: dirty, shared: shared})
		s.respLines.Add(f.line)
	}
	s.pendingFills = kept
}

// installFill performs step (5): pop one response and install the
// line into cache storage (alloc-on-fill), buffering any dirty victim
// for writeback. If the writeback buffer is full the install waits.
func (s *Slice) installFill() {
	f, ok := s.respQ.Peek()
	if !ok || s.wbBuf.Full() {
		return
	}
	s.respQ.Pop()
	s.respLines.Remove(f.line)
	// Bypass manager (Fig. 4 step 5): under the ablation knob, an
	// unshared clean line is not written into cache storage.
	if s.cfg.Bypass && !f.dirty && !f.shared {
		s.Bypasses++
		return
	}
	victim, victimDirty, evicted := s.store.Fill(f.line, f.dirty)
	s.ctr.Fills++
	if evicted && victimDirty {
		s.wbBuf.Push(victim)
	}
}

// admitRequest runs the arbiter: select a request from the request
// queue (policy-dependent), record it in sent_reqs with its
// speculative hit bit, and start the lookup pipeline.
func (s *Slice) admitRequest(now int64) {
	if s.reqQ.Len() == 0 || s.pipe.Full() {
		return
	}
	idx, specHit := s.policy.Select(s.reqQ, &s.arbCtx)
	req := s.reqQ.RemoveAt(idx)
	req.SpecHit = specHit
	s.served[req.Core]++
	if s.globalProgress != nil {
		s.globalProgress[req.Core]++
	}
	s.sent.Push(req.Line, specHit, now+int64(s.cfg.HitLatency+s.cfg.MSHRLatency))
	s.pipe.Push(pipeEntry{req: req, ready: now + int64(s.cfg.HitLatency), phase: phaseLookup})
}

// advancePipeline resolves the pipeline head: lookup, then on a miss
// the MSHR stage. Only the head resolves (in-order, one per cycle);
// an MSHR reservation failure stalls the pipeline and is counted into
// the cache-stall proportion t_cs.
func (s *Slice) advancePipeline(now int64) {
	head, ok := s.pipe.Peek()
	if !ok || head.ready > now {
		return
	}
	switch head.phase {
	case phaseLookup:
		s.ctr.L2Accesses++
		hit := s.store.Access(head.req.Line, head.req.Write)
		if !hit && s.respLines.Has(head.req.Line) {
			// The line awaits installation in the response queue; the
			// data is on-chip and is forwarded from there. A write
			// marks the queued fill dirty so the install preserves it.
			hit = true
			if head.req.Write {
				s.markRespDirty(head.req.Line)
			}
		}
		if hit {
			s.ctr.L2Hits++
			s.hitBuf.Push(head.req.Line)
			req := head.req
			s.pipe.Pop()
			if !req.Write {
				s.pushHitResp(req, now)
			}
			s.pool.Put(req)
			return
		}
		s.ctr.L2Misses++
		head.phase = phaseMSHR
		head.ready = now + int64(s.cfg.MSHRLatency)
		s.pipe.Replace(0, head)
	case phaseMSHR:
		req := head.req
		// The fill may have landed while this request waited (stalled
		// on reservation or queued behind the head): replay as a hit
		// instead of opening a duplicate entry and DRAM fetch.
		if s.respLines.Has(req.Line) || s.store.Probe(req.Line) {
			s.ctr.L2Misses--
			s.ctr.L2Hits++
			s.hitBuf.Push(req.Line)
			if req.Write {
				if !s.store.Access(req.Line, true) {
					s.markRespDirty(req.Line)
				}
			} else {
				s.store.Access(req.Line, false)
				s.pushHitResp(req, now)
			}
			s.pipe.Pop()
			s.pool.Put(req)
			return
		}
		result, _ := s.mshr.Reserve(req.Line, mshr.Target{
			ReqID:  req.ID,
			Core:   req.Core,
			Window: req.Window,
			Write:  req.Write,
			Issue:  req.IssueCycle,
		})
		switch result {
		case mshr.ResultMerged:
			s.ctr.MSHRMerges++
			s.pipe.Pop()
			s.pool.Put(req)
		case mshr.ResultNewEntry:
			s.ctr.MSHRAllocs++
			if s.tracked {
				s.filter.Add(req.Line)
			}
			if s.mem.CanEnqueue(req.Line) {
				_ = s.mem.Enqueue(dram.Access{Line: req.Line, Slice: s.cfg.Index, Enqueue: now})
			} else {
				s.deferred = append(s.deferred, req.Line)
			}
			s.pipe.Pop()
			s.pool.Put(req)
		case mshr.ResultFullEntry, mshr.ResultFullTarget:
			// Reservation failure: the whole pipeline stalls. Even
			// hits queued behind cannot proceed (Section 2.4).
			s.ctr.CacheStall++
		}
	}
}

// markRespDirty marks the queued fill for line dirty (a write hit on
// response-queue data).
func (s *Slice) markRespDirty(line uint64) {
	for i := 0; i < s.respQ.Len(); i++ {
		f := s.respQ.At(i)
		if f.line == line && !f.dirty {
			f.dirty = true
			s.respQ.Replace(i, f)
			return
		}
	}
}

// pushHitResp queues a hit response for delivery after the data-array
// latency.
func (s *Slice) pushHitResp(req *memreq.Request, now int64) {
	ready := now + int64(s.cfg.DataLatency)
	s.hitResps.Push(hitResp{
		del: noc.Delivery{
			Line:   req.Line,
			Core:   req.Core,
			Window: req.Window,
			ReqID:  req.ID,
			Issue:  req.IssueCycle,
		},
		ready: ready,
	})
	if ready < s.hitRespMin {
		s.hitRespMin = ready
	}
}

// deliverHitResponses sends hit data whose data-array latency elapsed.
// Ready times are monotonic (push cycle + constant data latency), so
// due responses always sit at the front.
func (s *Slice) deliverHitResponses(now int64) {
	if s.hitRespMin > now {
		return
	}
	for s.hitResps.Len() > 0 && s.hitResps.Front().ready <= now {
		s.net.SendResp(s.hitResps.Front().del, now)
		s.hitResps.PopFront()
	}
	if s.hitResps.Len() == 0 {
		s.hitRespMin = math.MaxInt64
	} else {
		s.hitRespMin = s.hitResps.Front().ready
	}
}
