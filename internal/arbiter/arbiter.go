// Package arbiter implements the LLC-slice request arbitration
// policies of Section 4 of the paper:
//
//   - FCFS      — the unoptimized baseline: oldest request first.
//   - Balanced  — "B": per-core progress counters; serve the core
//     with the smallest served count (Section 4.1).
//   - MA        — "MSHR-aware": predict cache hits via a hit_buffer
//     FIFO and MSHR hits via the MSHR view + sent_reqs, prioritise
//     inferred cache hits, then inferred MSHR hits, tie-breaking
//     FCFS (Section 4.3, Fig. 5).
//   - BMA       — MA with Balanced tie-breaking.
//   - COBRRA    — the prior-work baseline (Bagchi et al., TECS 2024):
//     request-over-response priority with alternation when the
//     response queue fills; FCFS request selection; bypass disabled
//     for fairness per Section 3.2 of the LLaMCAT paper.
//
// The package owns the speculative structures (HitBuffer, SentReqs)
// the slice updates, and the Filter that lets MA and BMA class most
// queued requests with one probe, so the policies and their hardware
// state live together.
package arbiter

import (
	"fmt"
	"math"

	"repro/internal/linetab"
	"repro/internal/memreq"
	"repro/internal/ring"
)

// Kind names an arbitration policy.
type Kind uint8

// Arbitration policy kinds.
const (
	FCFS Kind = iota
	Balanced
	MA
	BMA
	COBRRA
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FCFS:
		return "fcfs"
	case Balanced:
		return "B"
	case MA:
		return "MA"
	case BMA:
		return "BMA"
	case COBRRA:
		return "cobrra"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a policy name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "fcfs", "default", "unopt":
		return FCFS, nil
	case "B", "b", "balanced":
		return Balanced, nil
	case "MA", "ma":
		return MA, nil
	case "BMA", "bma":
		return BMA, nil
	case "cobrra":
		return COBRRA, nil
	}
	return 0, fmt.Errorf("arbiter: unknown policy %q", s)
}

// RespArb selects the request-vs-response arbitration flavour a
// policy wants (Section 3.3).
type RespArb uint8

// Request-response arbitration flavours.
const (
	// RespQueueFirst processes a response whenever one is pending —
	// the flavour the paper demonstrates its results with.
	RespQueueFirst RespArb = iota
	// ReqFirstAlternate prioritises requests and alternates only when
	// the response queue is full — COBRRA's approach.
	ReqFirstAlternate
)

// filterBits sizes the Filter: 2^8 buckets, several times the lines it
// tracks at Table 5 (a 32-entry hit_buffer, 10 sent_reqs and 6 MSHR
// entries), so most untracked lines find their bucket empty.
const filterBits = 8

// Filter is a counting filter over the lines an MSHR-aware selection
// can class as anything but "other": every hit_buffer entry, every
// sent_reqs entry not speculated a hit, and every valid MSHR entry.
// Each bucket counts the tracked lines whose multiplicative hash lands
// in it, so a line whose bucket is empty is in none of those
// structures. The structures keep it current as they change: the
// HitBuffer and SentReqs built with it update it themselves, and the
// slice adds and removes its MSHR entries' lines and clears it on
// Reset. The zero value is an empty filter.
type Filter struct {
	counts [1 << filterBits]uint32
}

func filterBucket(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> (64 - filterBits)
}

// Add records one more tracked occurrence of line.
func (f *Filter) Add(line uint64) { f.counts[filterBucket(line)]++ }

// Remove drops one tracked occurrence of line. It panics when line's
// bucket is empty: the line was never added, and a wrapped count would
// read "may hold" for the rest of the run, hiding the missed Add.
func (f *Filter) Remove(line uint64) {
	b := &f.counts[filterBucket(line)]
	if *b == 0 {
		panic(untrackedLine(line))
	}
	*b--
}

// untrackedLine is Remove's panic value: the line it was asked to drop.
type untrackedLine uint64

func (l untrackedLine) Error() string {
	return fmt.Sprintf("arbiter: Filter.Remove of untracked line %#x", uint64(l))
}

// MayHold reports whether line can be tracked; false is exact.
func (f *Filter) MayHold(line uint64) bool { return f.counts[filterBucket(line)] != 0 }

// Clear forgets every line.
func (f *Filter) Clear() { clear(f.counts[:]) }

// HitBuffer is the FIFO of recent cache-hit line addresses (Fig. 4).
// The slice pushes a line each time a lookup hits; the arbiter
// consults it to speculate that a queued request will hit. Alongside
// the FIFO it keeps the multiset of the lines it holds, so the
// arbiter's per-request membership test is one table probe instead of
// a scan — the hardware CAM's parallel compare, done in software.
type HitBuffer struct {
	fifo   *ring.Ring[uint64]
	counts linetab.Counts
	filter *Filter
}

// NewHitBuffer returns a hit buffer holding up to n recent hits. A
// non-nil filter tracks every line the buffer holds.
func NewHitBuffer(n int, filter *Filter) *HitBuffer {
	return &HitBuffer{fifo: ring.New[uint64](n), counts: linetab.NewCounts(n), filter: filter}
}

// SetFilter makes filter (nil for none) track the buffer's lines. The
// owner resets the buffer and clears the filter before the next Push.
func (h *HitBuffer) SetFilter(filter *Filter) { h.filter = filter }

// Push records a determined cache hit, evicting the oldest record when
// full (FIFO replacement, as hardware would).
func (h *HitBuffer) Push(line uint64) {
	if h.fifo.Full() {
		old, _ := h.fifo.Pop()
		h.counts.Remove(old)
		if h.filter != nil {
			h.filter.Remove(old)
		}
	}
	h.fifo.Push(line)
	h.counts.Add(line)
	if h.filter != nil {
		h.filter.Add(line)
	}
}

// Contains reports whether line is in the buffer.
func (h *HitBuffer) Contains(line uint64) bool { return h.counts.Has(line) }

// Reset empties the buffer, keeping the FIFO and index allocations.
// Its filter's owner clears the filter.
func (h *HitBuffer) Reset() {
	h.fifo.Clear()
	h.counts.Clear()
}

// Len returns the number of recorded hits.
func (h *HitBuffer) Len() int { return h.fifo.Len() }

// sentReq is one in-flight selection awaiting MSHR visibility.
type sentReq struct {
	line    uint64
	specHit bool
	expire  int64 // cycle at which the request is visible in MSHR
}

// SentReqs tracks requests selected in the last hit-latency +
// mshr-latency cycles — the window during which a selected request is
// not yet visible in the MSHR view (Section 4.3.1). Entries whose
// spec_hit bit is set are masked out when estimating MSHR state, since
// cache hits never touch the MSHR. Expire times are monotonic (push
// cycle + constant latency), so the cached front expiry lets the
// per-cycle expiry check run without touching the FIFO.
type SentReqs struct {
	fifo        *ring.Ring[sentReq]
	frontExpire int64
	filter      *Filter
}

// NewSentReqs returns a sent_reqs FIFO with capacity n (it needs to
// hold at most hit-latency + mshr-latency selections). A non-nil
// filter tracks the line of every entry not speculated a hit.
func NewSentReqs(n int, filter *Filter) *SentReqs {
	return &SentReqs{fifo: ring.New[sentReq](n), frontExpire: int64(math.MaxInt64), filter: filter}
}

// SetFilter makes filter (nil for none) track the FIFO's lines not
// speculated a hit. The owner resets the FIFO and clears the filter
// before the next Push.
func (s *SentReqs) SetFilter(filter *Filter) { s.filter = filter }

// Push records a selected request; expire is the cycle the request
// becomes visible in the real MSHR (now + hit-latency + mshr-latency).
func (s *SentReqs) Push(line uint64, specHit bool, expire int64) {
	if s.fifo.Full() {
		s.pop()
		s.refreshFront()
	}
	s.fifo.Push(sentReq{line: line, specHit: specHit, expire: expire})
	if s.filter != nil && !specHit {
		s.filter.Add(line)
	}
	if expire < s.frontExpire {
		s.frontExpire = expire
	}
}

// pop drops the oldest entry.
func (s *SentReqs) pop() {
	old, _ := s.fifo.Pop()
	if s.filter != nil && !old.specHit {
		s.filter.Remove(old.line)
	}
}

func (s *SentReqs) refreshFront() {
	if head, ok := s.fifo.Peek(); ok {
		s.frontExpire = head.expire
	} else {
		s.frontExpire = int64(math.MaxInt64)
	}
}

// Reset empties the FIFO, keeping its allocation. Its filter's owner
// clears the filter.
func (s *SentReqs) Reset() {
	s.fifo.Clear()
	s.frontExpire = int64(math.MaxInt64)
}

// Expire drops entries whose visibility window has passed.
func (s *SentReqs) Expire(now int64) {
	if s.frontExpire > now {
		return
	}
	for {
		head, ok := s.fifo.Peek()
		if !ok || head.expire > now {
			s.refreshFront()
			return
		}
		s.pop()
	}
}

// ContainsMiss reports whether line is tracked by an entry that was
// *not* speculated to be a cache hit — i.e. a request that will open
// or merge into an MSHR entry. It runs on the arbiter's per-request
// hot path, so it walks the FIFO's raw segments instead of paying a
// closure call per entry.
func (s *SentReqs) ContainsMiss(line uint64) bool {
	a, b := s.fifo.Segments()
	for i := range a {
		if !a[i].specHit && a[i].line == line {
			return true
		}
	}
	for i := range b {
		if !b[i].specHit && b[i].line == line {
			return true
		}
	}
	return false
}

// Len returns the number of tracked selections.
func (s *SentReqs) Len() int { return s.fifo.Len() }

// Context is the slice state a policy consults during selection. All
// functions are cheap views over the slice's real structures — the
// "direct wire connection" of Fig. 4.
type Context struct {
	// Served is the per-core progress counter array of this slice
	// (cnt0..cntN in Fig. 4), reset per operator.
	Served []int64
	// MSHRView is the real-time MSHR snapshot, read in one CAM scan:
	// whether line has an entry and that entry's remaining merge
	// capacity (full capacity when no entry matches). Fig. 5 shows the
	// snapshot carrying an "addr num" pair: the arbiter can see entry
	// occupancy, so MA avoids selecting a request that would fail
	// reservation and stall the pipeline. MA and BMA require it.
	MSHRView func(line uint64) (present bool, targetsFree int)
	// HitBuf and Sent are the speculative structures.
	HitBuf *HitBuffer
	Sent   *SentReqs
	// Filter, when non-nil, tracks every line HitBuf, Sent and the MSHR
	// hold, and MA and BMA class a request whose line it cannot hold as
	// "other" without probing them. Nil classifies every request from
	// scratch: the engine's reference loop does, so the equivalence
	// tests diff the filtered selection against the unfiltered one.
	Filter *Filter
}

// Policy selects which queued request the slice serves next.
type Policy interface {
	// Kind identifies the policy.
	Kind() Kind
	// Select returns the index (into queue order, 0 = oldest) of the
	// chosen request and the speculative cache-hit bit to record in
	// sent_reqs. The queue is non-empty.
	Select(q *ring.Ring[*memreq.Request], ctx *Context) (idx int, specHit bool)
	// RespArb reports the request-response arbitration flavour.
	RespArb() RespArb
}

// New constructs the policy implementation for kind.
func New(kind Kind) Policy {
	switch kind {
	case FCFS:
		return fcfsPolicy{}
	case Balanced:
		return balancedPolicy{}
	case MA:
		return maPolicy{balancedTie: false}
	case BMA:
		return maPolicy{balancedTie: true}
	case COBRRA:
		return cobrraPolicy{}
	default:
		return fcfsPolicy{}
	}
}

// fcfsPolicy serves the oldest request: the unoptimized arbiter.
type fcfsPolicy struct{}

func (fcfsPolicy) Kind() Kind       { return FCFS }
func (fcfsPolicy) RespArb() RespArb { return RespQueueFirst }

func (fcfsPolicy) Select(q *ring.Ring[*memreq.Request], ctx *Context) (int, bool) {
	r := q.At(0)
	return 0, ctx.HitBuf != nil && ctx.HitBuf.Contains(r.Line)
}

// balancedPolicy is "B": smallest per-core served count wins;
// FCFS among requests of the same core (Section 4.1).
type balancedPolicy struct{}

func (balancedPolicy) Kind() Kind       { return Balanced }
func (balancedPolicy) RespArb() RespArb { return RespQueueFirst }

func (balancedPolicy) Select(q *ring.Ring[*memreq.Request], ctx *Context) (int, bool) {
	best := 0
	bestServed := int64(-1)
	segA, segB := q.Segments()
	idx := 0
	for _, seg := range [2][]*memreq.Request{segA, segB} {
		for _, r := range seg {
			served := int64(0)
			if r.Core >= 0 && r.Core < len(ctx.Served) {
				served = ctx.Served[r.Core]
			}
			if bestServed < 0 || served < bestServed {
				best, bestServed = idx, served
			}
			idx++
		}
	}
	r := q.At(best)
	return best, ctx.HitBuf != nil && ctx.HitBuf.Contains(r.Line)
}

// maPolicy implements MA and BMA: rank requests by speculated class
// (cache hit < MSHR hit < other), tie-breaking FCFS (MA) or balanced
// (BMA). Section 4.3.3.
type maPolicy struct {
	balancedTie bool
}

func (p maPolicy) Kind() Kind {
	if p.balancedTie {
		return BMA
	}
	return MA
}

func (maPolicy) RespArb() RespArb { return RespQueueFirst }

// MA/BMA request classes, best first.
const (
	classHit   = iota
	classMSHR  // inferred MSHR hit: merges into an in-flight miss
	classOther // inferred true miss
	classStall // in MSHR but target list full: selection would stall
)

func (p maPolicy) Select(q *ring.Ring[*memreq.Request], ctx *Context) (int, bool) {
	// Single-request fast path: the selection is forced, only the
	// speculative hit bit matters. Queues drain to one entry often in
	// low-contention phases, so this skips the class ranking entirely.
	filter := ctx.Filter
	if q.Len() == 1 {
		line := q.At(0).Line
		return 0, (filter == nil || filter.MayHold(line)) && ctx.HitBuf.Contains(line)
	}
	best := -1
	bestClass := classStall + 1
	bestServed := int64(-1)
	bestSpec := false
	segA, segB := q.Segments()
	idx := 0
	for _, seg := range [2][]*memreq.Request{segA, segB} {
		for _, r := range seg {
			i := idx
			idx++
			class, specHit := classOther, false
			if filter == nil || filter.MayHold(r.Line) {
				class, specHit = ctx.classify(r.Line)
			}
			better := false
			if class < bestClass {
				better = true
			} else if class == bestClass && p.balancedTie {
				served := int64(0)
				if r.Core >= 0 && r.Core < len(ctx.Served) {
					served = ctx.Served[r.Core]
				}
				if served < bestServed {
					better = true
				}
			}
			if best < 0 || better {
				best = i
				bestClass = class
				bestSpec = specHit
				if r.Core >= 0 && r.Core < len(ctx.Served) {
					bestServed = ctx.Served[r.Core]
				} else {
					bestServed = 0
				}
			}
		}
	}
	return best, bestSpec
}

// classify derives line's class and speculative hit bit from the
// hit_buffer, the MSHR view and sent_reqs.
func (ctx *Context) classify(line uint64) (class int, specHit bool) {
	if ctx.HitBuf.Contains(line) {
		return classHit, true
	}
	if inMSHR, free := ctx.MSHRView(line); inMSHR {
		if free <= 0 {
			return classStall, false
		}
		return classMSHR, false
	}
	if ctx.Sent.ContainsMiss(line) {
		return classMSHR, false
	}
	return classOther, false
}

// cobrraPolicy models the COBRRA baseline's arbitration component:
// FCFS request selection plus request-first response alternation. The
// original also bypasses cache fills; bypass is disabled here exactly
// as the paper disables it for all policies (Section 3.2, step 5).
type cobrraPolicy struct{}

func (cobrraPolicy) Kind() Kind       { return COBRRA }
func (cobrraPolicy) RespArb() RespArb { return ReqFirstAlternate }

func (cobrraPolicy) Select(q *ring.Ring[*memreq.Request], ctx *Context) (int, bool) {
	r := q.At(0)
	return 0, ctx.HitBuf != nil && ctx.HitBuf.Contains(r.Line)
}
