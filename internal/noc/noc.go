// Package noc models the interconnect between the vector cores and
// the LLC slices (the "Interconnect Network" of Fig. 3/4): a fixed
// transit latency plus finite per-slice ingress bandwidth. Requests
// that arrive at a slice whose request queue is full wait in the
// network (head-of-line), exerting backpressure toward the cores.
//
// The response direction (slice → core) models latency only; the
// direct-forward path of Fig. 4 step (4') uses it too.
package noc

import (
	"fmt"
	"math"

	"repro/internal/memreq"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Config describes the interconnect.
type Config struct {
	Latency        int // transit cycles in each direction
	SliceIngestPer int // requests a slice may accept per cycle
	// SliceBufCap bounds the requests in flight toward one slice
	// (transit pipeline plus ingress buffer). When reached, cores see
	// backpressure and their egress queues fill — the path by which
	// LLC contention becomes core memory-stall (C_mem).
	SliceBufCap int
}

// DefaultConfig matches a crossbar/mesh hop count appropriate for a
// 16-core, 8-slice chip.
func DefaultConfig() Config {
	return Config{Latency: 8, SliceIngestPer: 1, SliceBufCap: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("noc: Latency must be non-negative, got %d", c.Latency)
	}
	if c.SliceIngestPer <= 0 {
		return fmt.Errorf("noc: SliceIngestPer must be positive, got %d", c.SliceIngestPer)
	}
	if c.SliceBufCap <= 0 {
		return fmt.Errorf("noc: SliceBufCap must be positive, got %d", c.SliceBufCap)
	}
	return nil
}

type reqFlit struct {
	req    *memreq.Request
	arrive int64
}

// Delivery is a response delivered to a core: the line plus the
// window that was waiting on it.
type Delivery struct {
	Line   uint64
	Core   int
	Window int
	ReqID  int64
	Issue  int64
}

type respFlit struct {
	del    Delivery
	arrive int64
}

// Waker is told when a flit sent into an empty path becomes that
// path's head, and so the next delivery its destination can take: the
// engine's wake calendar visits the destination then instead of
// polling every path every cycle. A path whose head is delivered
// exposes its next flit during its destination's own visit, which
// re-reads the head; the Waker is not told.
type Waker interface {
	// ReqDue: a request sent at cycle now heads slice's path and
	// arrives at cycle at.
	ReqDue(slice int, now, at int64)
	// RespDue: a response sent at cycle now heads core's path and
	// arrives at cycle at.
	RespDue(core int, now, at int64)
}

// NoC is the interconnect. FIFOs stay ordered because latency is
// uniform; delivery therefore pops from the front only.
type NoC struct {
	cfg     Config
	toSlice []ring.Queue[reqFlit]  // per slice
	toCore  []ring.Queue[respFlit] // per core
	ctr     *stats.Counters
	wake    Waker // nil: nobody is told
}

// New builds the interconnect for the given topology.
func New(cfg Config, numCores, numSlices int, ctr *stats.Counters) (*NoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	n := &NoC{cfg: cfg, ctr: ctr}
	n.toSlice = make([]ring.Queue[reqFlit], numSlices)
	n.toCore = make([]ring.Queue[respFlit], numCores)
	return n, nil
}

// SetWaker registers the receiver of head-arrival notices.
func (n *NoC) SetWaker(w Waker) { n.wake = w }

// Reset rewinds the interconnect to its just-constructed state: every
// in-flight flit dropped (the caller owns request recycling; after a
// drained run the queues are empty anyway), keeping all queue
// allocations.
func (n *NoC) Reset() {
	for i := range n.toSlice {
		n.toSlice[i].Clear()
	}
	for i := range n.toCore {
		n.toCore[i].Clear()
	}
}

// CanSendReq reports whether the path toward a slice has buffer space.
func (n *NoC) CanSendReq(slice int) bool {
	return n.toSlice[slice].Len() < n.cfg.SliceBufCap
}

// SendReq injects a request toward a slice at cycle now. The caller
// must have checked CanSendReq.
func (n *NoC) SendReq(req *memreq.Request, slice int, now int64) {
	n.ctr.NoCReqSent++
	arrive := now + int64(n.cfg.Latency)
	if n.toSlice[slice].Len() == 0 && n.wake != nil {
		n.wake.ReqDue(slice, now, arrive)
	}
	n.toSlice[slice].Push(reqFlit{req: req, arrive: arrive})
}

// SliceQueueLen returns the number of requests in flight toward or
// waiting at a slice's ingress (diagnostics and drain checks).
func (n *NoC) SliceQueueLen(slice int) int { return n.toSlice[slice].Len() }

// DeliverReqs hands arrived requests to a slice via accept, which
// returns false when the slice's request queue is full; delivery then
// stops (head-of-line blocking). At most SliceIngestPer requests are
// delivered per call. It reports whether a full path gained space —
// the only event that can unblock a core's egress toward the slice.
func (n *NoC) DeliverReqs(slice int, now int64, accept func(*memreq.Request) bool) (freed bool) {
	q := &n.toSlice[slice]
	delivered := 0
	for q.Len() > 0 && delivered < n.cfg.SliceIngestPer {
		f := q.Front()
		if f.arrive > now {
			break
		}
		f.req.ArriveCycle = now
		if !accept(f.req) {
			n.ctr.NetQueueDelay++
			break
		}
		freed = freed || q.Len() == n.cfg.SliceBufCap
		q.PopFront()
		delivered++
	}
	return freed
}

// SendResp injects a data delivery toward a core at cycle now.
func (n *NoC) SendResp(d Delivery, now int64) {
	n.ctr.NoCRespSent++
	arrive := now + int64(n.cfg.Latency)
	if n.toCore[d.Core].Len() == 0 && n.wake != nil {
		n.wake.RespDue(d.Core, now, arrive)
	}
	n.toCore[d.Core].Push(respFlit{del: d, arrive: arrive})
}

// DeliverResps hands all arrived responses for a core to fn.
func (n *NoC) DeliverResps(core int, now int64, fn func(Delivery)) {
	q := &n.toCore[core]
	for q.Len() > 0 {
		f := q.Front()
		if f.arrive > now {
			break
		}
		fn(f.del)
		q.PopFront()
	}
}

// ReqFrontArrive returns the arrival cycle of a slice's head-of-line
// request flit, or math.MaxInt64 when none is in flight.
func (n *NoC) ReqFrontArrive(slice int) int64 {
	q := &n.toSlice[slice]
	if q.Len() == 0 {
		return math.MaxInt64
	}
	return q.Front().arrive
}

// RespFrontArrive returns the arrival cycle of a core's head-of-line
// response flit, or math.MaxInt64 when none is in flight.
func (n *NoC) RespFrontArrive(core int) int64 {
	q := &n.toCore[core]
	if q.Len() == 0 {
		return math.MaxInt64
	}
	return q.Front().arrive
}

// Pending reports the total number of in-flight flits.
func (n *NoC) Pending() int {
	total := 0
	for i := range n.toSlice {
		total += n.toSlice[i].Len()
	}
	for i := range n.toCore {
		total += n.toCore[i].Len()
	}
	return total
}
