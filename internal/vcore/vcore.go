// Package vcore models the 128-element vector cores of Section 5: a
// core owns a private L1 cache, several instruction windows (each
// holding one thread block), and an egress queue toward the
// interconnect. When the current window cannot issue (outstanding
// memory, compute busy, backpressure) the core switches to another
// window — the warp-scheduler-like latency hiding of Section 3.1.
// Programmers (here: the dataflow) control only block sizes and
// counts, not the switching.
//
// The core exposes the performance counters the throttling
// controllers sample: C_idle (no thread block available to run) and
// C_mem (all resident blocks blocked on memory).
package vcore

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/linetab"
	"repro/internal/memreq"
	"repro/internal/memtrace"
	"repro/internal/noc"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/stats"
)

// MaxWindows bounds the instruction windows per core; the waiter
// bookkeeping uses fixed-size arrays of this width.
const MaxWindows = 8

// Config parameterises one core (Table 5 defaults come from the sim
// package).
type Config struct {
	ID          int
	NumWindows  int // instruction windows (4)
	WindowDepth int // max outstanding loads per window (128)
	VectorBytes int // bytes per vector access (128)
	LineBytes   int // cache line size (64)
	EgressCap   int // outbound request queue depth
	NumSlices   int // LLC slice count (for routing)
	L1          cache.Config
}

// Validate checks core parameters.
func (c Config) Validate() error {
	switch {
	case c.NumWindows <= 0 || c.NumWindows > MaxWindows:
		return fmt.Errorf("vcore: NumWindows must be in [1,%d], got %d", MaxWindows, c.NumWindows)
	case c.WindowDepth <= 0:
		return fmt.Errorf("vcore: WindowDepth must be positive, got %d", c.WindowDepth)
	case c.VectorBytes <= 0 || c.VectorBytes%c.LineBytes != 0:
		return fmt.Errorf("vcore: VectorBytes must be a positive multiple of LineBytes, got %d", c.VectorBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("vcore: LineBytes must be a positive power of two, got %d", c.LineBytes)
	case c.EgressCap <= 0:
		return fmt.Errorf("vcore: EgressCap must be positive, got %d", c.EgressCap)
	case c.NumSlices <= 0 || c.NumSlices&(c.NumSlices-1) != 0:
		return fmt.Errorf("vcore: NumSlices must be a positive power of two, got %d", c.NumSlices)
	}
	return c.L1.Validate()
}

type window struct {
	tb          *memtrace.ThreadBlock
	pc          int
	ninst       int   // len(tb.Insts), kept beside pc
	outstanding int   // pending line loads
	busyUntil   int64 // compute occupancy
	// Expansion state of the current memory instruction into lines.
	expanding bool
	nextLine  uint64
	endLine   uint64
	isStore   bool
	// Thread-block timing for the LCS observer.
	startCycle int64
	busyCycles int64
	// Miss-probe memo: a line that probed as an unmerged L1 miss stays
	// one until that exact line is filled or merged (fills of other
	// lines only evict — they cannot make an absent line present), so
	// a blocked window's per-cycle re-probe needs no lookup. The core
	// invalidates matching memos on fills and new in-flight misses.
	probeLine  uint64
	probeValid bool
}

func (w *window) active() bool { return w.tb != nil }

func (w *window) finished() bool {
	return w.tb != nil && !w.expanding && w.pc >= w.ninst
}

// TBCompletion describes a retired thread block; controllers that
// implement throttle.TBObserver consume it.
type TBCompletion struct {
	Core        int
	BusyCycles  int64
	TotalCycles int64
}

// Core is one vector core.
type Core struct {
	cfg     Config
	l1      *cache.Cache
	windows []window
	egress  *ring.Ring[*memreq.Request]
	// pendingL1 merges same-line L1 misses: line → per-window waiter
	// counts (an idealised L1 MSHR with ample entries). Every line in
	// it has a waiter counted in some window's outstanding loads, so
	// NumWindows × WindowDepth bounds it.
	pendingL1 *linetab.Table[[MaxWindows]int16]

	maxTB     int // thread-block limit published by the throttle controller
	lastWin   int // round-robin pointer
	doneTBs   []TBCompletion
	exhausted bool // the pool returned no work on the last refill

	net  *noc.NoC
	pool *memreq.Pool
	ctr  *stats.Counters

	// Per-core cumulative throttling signals (the controllers need
	// them per core; the global stats.Counters aggregate them).
	CMem  int64
	CIdle int64

	// Diagnostics.
	IssuedLines int64
	TBsRun      int64

	// stallProfile caches the per-cycle counter deltas of a blocked
	// tick so the engine can apply a skipped cycle in a handful of
	// adds; it is rebuilt lazily after every real tick.
	profileValid  bool
	profIdle      bool
	profMem       bool
	profProbes    int64
	profBackpress bool
}

// New builds a core.
func New(cfg Config, net *noc.NoC, pool *memreq.Pool, ctr *stats.Counters) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	if pool == nil {
		pool = &memreq.Pool{}
	}
	return &Core{
		cfg:       cfg,
		l1:        l1,
		windows:   make([]window, cfg.NumWindows),
		egress:    ring.New[*memreq.Request](cfg.EgressCap),
		pendingL1: linetab.New[[MaxWindows]int16](cfg.NumWindows * cfg.WindowDepth),
		maxTB:     cfg.NumWindows,
		net:       net,
		pool:      pool,
		ctr:       ctr,
	}, nil
}

// L1 exposes the private cache (tests, diagnostics).
func (c *Core) L1() *cache.Cache { return c.l1 }

// Reset rewinds the core to its just-constructed state, reusing every
// allocation: the L1 storage, the window array, the egress ring (any
// leftover requests are recycled into the shared pool) and the
// in-flight miss table. Counters and the round-robin pointer rewind
// too, so a Reset core is indistinguishable from a fresh New.
func (c *Core) Reset() {
	c.l1.Reset()
	for i := range c.windows {
		c.windows[i] = window{}
	}
	for {
		r, ok := c.egress.Pop()
		if !ok {
			break
		}
		c.pool.Put(r)
	}
	c.pendingL1.Clear()
	c.maxTB = c.cfg.NumWindows
	c.lastWin = 0
	c.doneTBs = c.doneTBs[:0]
	c.exhausted = false
	c.CMem = 0
	c.CIdle = 0
	c.IssuedLines = 0
	c.TBsRun = 0
	c.profileValid = false
}

// SetMaxTB publishes the throttle controller's thread-block limit.
func (c *Core) SetMaxTB(n int) {
	if n < 1 {
		n = 1
	}
	if n > c.cfg.NumWindows {
		n = c.cfg.NumWindows
	}
	c.maxTB = n
}

// MaxTB returns the current limit.
func (c *Core) MaxTB() int { return c.maxTB }

// ActiveTBs counts windows currently holding a thread block.
func (c *Core) ActiveTBs() int {
	n := 0
	for i := range c.windows {
		if c.windows[i].active() {
			n++
		}
	}
	return n
}

// Busy reports whether the core still holds work in flight.
func (c *Core) Busy() bool {
	if c.egress.Len() > 0 || c.pendingL1.Len() > 0 {
		return true
	}
	return c.ActiveTBs() > 0
}

// OnDelivery accepts a returning line (L2 hit data or DRAM direct
// forward): wake the waiting windows and install into L1
// (allocate-on-fill, streaming insertion).
func (c *Core) OnDelivery(d noc.Delivery) {
	waiters, ok := c.pendingL1.Delete(d.Line)
	if !ok {
		return // store ack or duplicate; nothing waits
	}
	for wi := 0; wi < len(c.windows); wi++ {
		if cnt := waiters[wi]; cnt > 0 {
			c.windows[wi].outstanding -= int(cnt)
			if c.windows[wi].outstanding < 0 {
				c.windows[wi].outstanding = 0
			}
		}
	}
	c.l1.Fill(d.Line, false)
	c.invalidateProbes(d.Line)
}

// invalidateProbes drops miss-probe memos for line: it just became
// resident (fill) or merged (new in-flight miss), so "unmerged miss"
// no longer holds for it. Memos for other lines stay valid — fills
// only evict, and eviction cannot make an absent line present.
func (c *Core) invalidateProbes(line uint64) {
	for i := range c.windows {
		if c.windows[i].probeLine == line {
			c.windows[i].probeValid = false
		}
	}
}

// DrainCompletions returns and clears thread-block completion events.
// The returned slice aliases an internal buffer that the next Tick
// reuses; callers consume it before ticking the core again.
func (c *Core) DrainCompletions() []TBCompletion {
	out := c.doneTBs
	c.doneTBs = c.doneTBs[:0]
	return out
}

// Tick advances the core one cycle: retire finished blocks, refill
// windows from the dispatcher (respecting maxTB), issue at most one
// instruction/line, and drain the egress queue into the NoC.
func (c *Core) Tick(now int64, dispatch sched.Pool) {
	c.profileValid = false
	c.retireAndRefill(now, dispatch)
	c.issue(now)
	c.drainEgress(now)
}

func (c *Core) retireAndRefill(now int64, dispatch sched.Pool) {
	active := 0
	for i := range c.windows {
		w := &c.windows[i]
		if !w.active() {
			continue
		}
		if w.finished() && w.outstanding == 0 && w.busyUntil <= now {
			c.doneTBs = append(c.doneTBs, TBCompletion{
				Core:        c.cfg.ID,
				BusyCycles:  w.busyCycles,
				TotalCycles: now - w.startCycle,
			})
			c.ctr.TBCompleted++
			c.TBsRun++
			w.tb = nil
			continue
		}
		active++
	}
	c.exhausted = false
	for i := range c.windows {
		if active >= c.maxTB {
			return
		}
		w := &c.windows[i]
		if w.active() {
			continue
		}
		tb, ok := dispatch.Next(c.cfg.ID)
		if !ok {
			c.exhausted = true
			return
		}
		*w = window{tb: tb, ninst: len(tb.Insts), startCycle: now}
		active++
	}
}

// issue finds one ready window round-robin and issues one line access
// or compute instruction; updates C_idle/C_mem when nothing can issue.
func (c *Core) issue(now int64) {
	n := len(c.windows)
	anyActive := false
	anyMemBlocked := false
	for off, wi := 0, c.lastWin; off < n; off++ {
		if wi++; wi == n {
			wi = 0
		}
		w := &c.windows[wi]
		if !w.active() {
			continue
		}
		if w.finished() {
			// Block retired instruction-wise but waiting on loads:
			// the window is memory-blocked, not idle.
			if w.outstanding > 0 {
				anyActive = true
				anyMemBlocked = true
			}
			continue
		}
		anyActive = true
		if w.busyUntil > now {
			continue
		}
		if !w.expanding {
			inst := &w.tb.Insts[w.pc]
			if inst.Kind == memtrace.KindCompute {
				w.busyUntil = now + int64(inst.Cycles)
				w.pc++
				w.busyCycles += int64(inst.Cycles)
				c.ctr.InstIssued++
				c.ctr.ComputeOps++
				c.lastWin = wi
				return
			}
			// Begin expanding the vector access into line accesses.
			lb := uint64(c.cfg.LineBytes)
			w.expanding = true
			w.nextLine = inst.Addr / lb
			w.endLine = (inst.Addr + uint64(inst.Width) - 1) / lb
			w.isStore = inst.Kind == memtrace.KindStore
			c.ctr.InstIssued++
			if w.isStore {
				c.ctr.VectorStores++
			} else {
				c.ctr.VectorLoads++
			}
		}
		// Issue the next line of the expansion.
		if !w.isStore && w.outstanding >= c.cfg.WindowDepth {
			anyMemBlocked = true
			continue
		}
		if c.issueLine(w, wi, now) {
			w.busyCycles++
			if w.nextLine > w.endLine {
				w.expanding = false
				w.pc++
			}
			c.lastWin = wi
			return
		}
		anyMemBlocked = true
	}
	switch {
	case !anyActive:
		c.ctr.CoreIdle++
		c.CIdle++
	case anyMemBlocked:
		c.ctr.CoreMemStall++
		c.CMem++
	}
}

// issueLine performs the L1 access for one line of the current vector
// instruction; it reports false when backpressure blocks the issue.
func (c *Core) issueLine(w *window, wi int, now int64) bool {
	line := w.nextLine
	if w.isStore {
		// Write-through, write-no-allocate: probe L1 (update on hit),
		// always forward the write to L2 as a posted request.
		if c.egress.Full() {
			return false
		}
		c.ctr.L1Accesses++
		if c.l1.Access(line, true) {
			c.ctr.L1Hits++
		}
		r := c.pool.Get()
		r.Line = line
		r.Write = true
		r.Posted = true
		r.Core = c.cfg.ID
		r.Window = wi
		r.IssueCycle = now
		c.egress.Push(r)
		c.IssuedLines++
		w.nextLine++
		return true
	}
	c.ctr.L1Accesses++
	if w.probeValid && w.probeLine == line {
		// Memoized probe: with the core's memory state unchanged since
		// the last attempt, the line is still an unmerged L1 miss, so
		// only the egress queue gates the issue. Account the repeated
		// miss lookup without re-scanning the set.
		c.l1.AccountMisses(1)
		if c.egress.Full() {
			return false
		}
	} else {
		if c.l1.Access(line, false) {
			c.ctr.L1Hits++
			c.IssuedLines++
			w.nextLine++
			return true
		}
		if waiters := c.pendingL1.Find(line); waiters != nil {
			// Merge with an in-flight miss for the same line.
			waiters[wi]++
			w.outstanding++
			c.ctr.L1Merges++
			c.IssuedLines++
			w.nextLine++
			return true
		}
		if c.egress.Full() {
			w.probeLine, w.probeValid = line, true
			return false
		}
	}
	r := c.pool.Get()
	r.Line = line
	r.Core = c.cfg.ID
	r.Window = wi
	r.IssueCycle = now
	c.egress.Push(r)
	var waiters [MaxWindows]int16
	waiters[wi] = 1
	*c.pendingL1.Insert(line) = waiters
	c.invalidateProbes(line)
	w.outstanding++
	c.IssuedLines++
	w.nextLine++
	return true
}

// drainEgress moves up to one request per cycle into the NoC, subject
// to the per-slice buffer backpressure.
func (c *Core) drainEgress(now int64) {
	r, ok := c.egress.Peek()
	if !ok {
		return
	}
	slice := int(r.Line & uint64(c.cfg.NumSlices-1))
	if !c.net.CanSendReq(slice) {
		c.ctr.NoCBackpress++
		return
	}
	c.egress.Pop()
	c.net.SendReq(r, slice, now)
}

// NextEvent returns a lower bound on the earliest cycle after now at
// which the core's own tick can change state, assuming no external
// input (NoC delivery, controller update, backpressure release)
// arrives before then. Returning now+1 means the next tick may act;
// math.MaxInt64 means the core is entirely gated on external events.
// Called on post-tick state only.
func (c *Core) NextEvent(now int64) int64 {
	h := int64(math.MaxInt64)
	idle := 0
	for i := range c.windows {
		w := &c.windows[i]
		if !w.active() {
			idle++
			continue
		}
		if w.finished() {
			// Retires once outstanding loads return (external) and any
			// trailing compute occupancy elapses.
			if w.outstanding == 0 {
				t := w.busyUntil
				if t <= now {
					t = now + 1
				}
				if t < h {
					h = t
				}
			}
			continue
		}
		if w.busyUntil > now {
			if w.busyUntil < h {
				h = w.busyUntil
			}
			continue
		}
		if !w.expanding {
			// Next instruction issue (compute, or the start of a vector
			// expansion) always changes state.
			return now + 1
		}
		if !w.isStore && w.outstanding >= c.cfg.WindowDepth {
			continue // window-depth blocked: waits on a delivery
		}
		if w.isStore {
			if !c.egress.Full() {
				return now + 1
			}
			continue // store line blocked on a full egress queue
		}
		// Load line: an L1 hit or an in-flight-miss merge issues even
		// with a full egress queue.
		if w.probeValid && w.probeLine == w.nextLine {
			// Memoized unmerged miss: gated on the egress queue only.
			if !c.egress.Full() {
				return now + 1
			}
			continue
		}
		if c.l1.Probe(w.nextLine) {
			return now + 1
		}
		if c.pendingL1.Find(w.nextLine) != nil {
			return now + 1
		}
		if !c.egress.Full() {
			return now + 1
		}
		// L1 miss blocked on egress: gated on the NoC draining.
	}
	if idle > 0 && c.ActiveTBs() < c.maxTB && !c.exhausted {
		return now + 1 // a refill from the dispatcher can proceed
	}
	if r, ok := c.egress.Peek(); ok {
		if c.net.CanSendReq(int(r.Line & uint64(c.cfg.NumSlices-1))) {
			return now + 1 // egress drain can proceed
		}
	}
	return h
}

// rebuildProfile snapshots the per-cycle counter deltas of a blocked
// tick: the C_idle/C_mem classification the issue stage would record,
// the L1 probes of issue-blocked load windows, and egress
// backpressure. Valid for every cycle in which the engine skips the
// core, since its state (and therefore the classification) is frozen
// across such a window.
func (c *Core) rebuildProfile(now int64) {
	anyActive, anyMemBlocked := false, false
	probes := int64(0)
	for i := range c.windows {
		w := &c.windows[i]
		if !w.active() {
			continue
		}
		if w.finished() {
			if w.outstanding > 0 {
				anyActive = true
				anyMemBlocked = true
			}
			continue
		}
		anyActive = true
		if w.busyUntil > now {
			continue
		}
		// Ready but blocked (NextEvent ruled out a successful issue):
		// window-depth-blocked loads and egress-blocked stores fail
		// before touching the L1; egress-blocked load lines re-probe
		// the L1 (and miss) every cycle.
		anyMemBlocked = true
		if w.expanding && !w.isStore && w.outstanding < c.cfg.WindowDepth {
			probes++
		}
	}
	c.profIdle = !anyActive
	c.profMem = anyActive && anyMemBlocked
	c.profProbes = probes
	c.profBackpress = c.egress.Len() > 0
	c.profileValid = true
}

// ApplyStallTicks bulk-applies the per-cycle counter effects of
// `cycles` skipped dead cycles starting after now. The engine calls
// it only for cycles NextEvent proved dead, during which the core's
// state is frozen.
func (c *Core) ApplyStallTicks(now, cycles int64) {
	if !c.profileValid {
		c.rebuildProfile(now)
	}
	switch {
	case c.profIdle:
		c.ctr.CoreIdle += cycles
		c.CIdle += cycles
	case c.profMem:
		c.ctr.CoreMemStall += cycles
		c.CMem += cycles
	}
	if c.profProbes > 0 {
		c.ctr.L1Accesses += c.profProbes * cycles
		c.l1.AccountMisses(c.profProbes * cycles)
	}
	if c.profBackpress {
		c.ctr.NoCBackpress += cycles
	}
}

// EgressHeadSlice returns the LLC slice the egress queue's head
// request routes to, or -1 when the queue is empty. The engine uses
// it to wake a blocked core the moment that slice's ingress path
// gains buffer space.
func (c *Core) EgressHeadSlice() int {
	r, ok := c.egress.Peek()
	if !ok {
		return -1
	}
	return int(r.Line & uint64(c.cfg.NumSlices-1))
}
