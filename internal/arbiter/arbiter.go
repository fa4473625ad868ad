// Package arbiter implements the LLC-slice request arbitration
// policies of Section 4 of the paper:
//
//   - FCFS      — the unoptimized baseline: oldest request first.
//   - Balanced  — "B": per-core progress counters; serve the core
//     with the smallest served count (Section 4.1).
//   - MA        — "MSHR-aware": predict cache hits via a hit_buffer
//     FIFO and MSHR hits via MSHR_snapshot + sent_reqs, prioritise
//     inferred cache hits, then inferred MSHR hits, tie-breaking
//     FCFS (Section 4.3, Fig. 5).
//   - BMA       — MA with Balanced tie-breaking.
//   - COBRRA    — the prior-work baseline (Bagchi et al., TECS 2024):
//     request-over-response priority with alternation when the
//     response queue fills; FCFS request selection; bypass disabled
//     for fairness per Section 3.2 of the LLaMCAT paper.
//
// The package owns the speculative structures (HitBuffer, SentReqs)
// the slice updates, so the policies and their hardware state live
// together.
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

// HitBuffer is the FIFO of recent cache-hit line addresses (Fig. 4).
// The slice pushes a line each time a lookup hits; the arbiter
// consults it to speculate that a queued request will hit. Alongside
// the FIFO it keeps the multiset of the lines it holds, so the
// arbiter's per-request membership test is one table probe instead of
// a scan — the hardware CAM's parallel compare, done in software.
type HitBuffer struct {
	fifo   *ring.Ring[uint64]
	counts linetab.Counts
}

// NewHitBuffer returns a hit buffer holding up to n recent hits.
func NewHitBuffer(n int) *HitBuffer {
	return &HitBuffer{fifo: ring.New[uint64](n), counts: linetab.NewCounts(n)}
}

// Push records a determined cache hit, evicting the oldest record when
// full (FIFO replacement, as hardware would).
func (h *HitBuffer) Push(line uint64) {
	if h.fifo.Full() {
		old, _ := h.fifo.Pop()
		h.counts.Remove(old)
	}
	h.fifo.Push(line)
	h.counts.Add(line)
}

// Contains reports whether line is in the buffer.
func (h *HitBuffer) Contains(line uint64) bool { return h.counts.Has(line) }

// Reset empties the buffer, keeping the FIFO and index allocations.
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
// not yet visible in MSHR_snapshot (Section 4.3.1). Entries whose
// spec_hit bit is set are masked out when estimating MSHR state, since
// cache hits never touch the MSHR. Expire times are monotonic (push
// cycle + constant latency), so the cached front expiry lets the
// per-cycle expiry check run without touching the FIFO.
type SentReqs struct {
	fifo        *ring.Ring[sentReq]
	frontExpire int64
}

// NewSentReqs returns a sent_reqs FIFO with capacity n (it needs to
// hold at most hit-latency + mshr-latency selections).
func NewSentReqs(n int) *SentReqs {
	return &SentReqs{fifo: ring.New[sentReq](n), frontExpire: int64(math.MaxInt64)}
}

// Push records a selected request; expire is the cycle the request
// becomes visible in the real MSHR (now + hit-latency + mshr-latency).
func (s *SentReqs) Push(line uint64, specHit bool, expire int64) {
	if s.fifo.Full() {
		s.fifo.Pop()
		s.refreshFront()
	}
	s.fifo.Push(sentReq{line: line, specHit: specHit, expire: expire})
	if expire < s.frontExpire {
		s.frontExpire = expire
	}
}

func (s *SentReqs) refreshFront() {
	if head, ok := s.fifo.Peek(); ok {
		s.frontExpire = head.expire
	} else {
		s.frontExpire = int64(math.MaxInt64)
	}
}

// Reset empties the FIFO, keeping its allocation.
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
		s.fifo.Pop()
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
	Now int64
	// Served is the per-core progress counter array of this slice
	// (cnt0..cntN in Fig. 4), reset per operator.
	Served []int64
	// MSHRView is the real-time MSHR_snapshot, read in one CAM scan:
	// whether line has an entry and that entry's remaining merge
	// capacity (full capacity when no entry matches). Fig. 5 shows the
	// snapshot carrying an "addr num" pair: the arbiter can see entry
	// occupancy, so MA avoids selecting a request that would fail
	// reservation and stall the pipeline. MA and BMA require it.
	MSHRView func(line uint64) (present bool, targetsFree int)
	// HitBuf and Sent are the speculative structures.
	HitBuf *HitBuffer
	Sent   *SentReqs
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

func (p maPolicy) Select(q *ring.Ring[*memreq.Request], ctx *Context) (int, bool) {
	const (
		classHit   = 0
		classMSHR  = 1
		classOther = 2
		classStall = 3 // in MSHR but target list full: selection would stall
	)
	// Single-request fast path: the selection is forced, only the
	// speculative hit bit matters. Queues drain to one entry often in
	// low-contention phases, so this skips the class ranking entirely.
	if q.Len() == 1 {
		return 0, ctx.HitBuf.Contains(q.At(0).Line)
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
			specHit := ctx.HitBuf.Contains(r.Line)
			class := classOther
			switch {
			case specHit:
				class = classHit
			default:
				inMSHR, free := ctx.MSHRView(r.Line)
				switch {
				case inMSHR:
					class = classMSHR
					if free <= 0 {
						class = classStall
					}
				case ctx.Sent.ContainsMiss(r.Line):
					class = classMSHR
				}
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
