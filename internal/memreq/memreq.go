// Package memreq defines the memory request type that travels from the
// vector cores through the interconnect into the LLC slices and, on a
// miss, down to the DRAM model — the unit of traffic on every datapath
// of Fig. 4 (Section 3.1) of the paper. A request always refers to a
// single cache line; vector accesses are split into line requests at
// the L1 boundary.
package memreq

// LineShift is log2 of the cache line size in bytes. The whole system
// uses 64-byte lines (Table 5 of the paper).
const LineShift = 6

// LineBytes is the cache line size in bytes.
const LineBytes = 1 << LineShift

// Request is one outstanding line-granularity memory transaction.
// Requests are allocated from a free list owned by the engine; no
// field may hold a pointer into another request.
type Request struct {
	ID     int64  // unique, monotonically increasing
	Line   uint64 // line address (byte address >> LineShift)
	Write  bool   // true for stores (write-through traffic from L1)
	Core   int    // issuing core
	Window int    // issuing instruction window within the core

	// Timestamps, in core cycles, for latency accounting.
	IssueCycle  int64 // cycle the core issued the access
	ArriveCycle int64 // cycle the request entered the slice request queue

	// SpecHit is the arbiter's speculative cache-hit bit, recorded in
	// sent_reqs when the request is selected (Fig. 5 of the paper).
	SpecHit bool

	// Posted stores complete at the LLC without a response to the core.
	Posted bool
}

// Reset clears a request for reuse by a free list.
func (r *Request) Reset() {
	*r = Request{}
}

// Pool is a trivial free list for Request objects. It is not safe for
// concurrent use; the simulation engine is single-threaded by design
// (cycle-accurate determinism), so no locking is needed.
type Pool struct {
	free   []*Request
	nextID int64
	puts   int64
}

// Get returns a zeroed request with a fresh ID.
func (p *Pool) Get() *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
		r.Reset()
	} else {
		r = &Request{}
	}
	p.nextID++
	r.ID = p.nextID
	return r
}

// Prealloc grows the free list to hold at least n recycled requests,
// allocating them in one contiguous block. The engine calls it at
// construction with the system's maximum in-flight request count so
// the steady-state cycle loop never allocates a Request.
func (p *Pool) Prealloc(n int) {
	have := len(p.free)
	if n <= have {
		return
	}
	block := make([]Request, n-have)
	if cap(p.free) < n {
		grown := make([]*Request, have, n)
		copy(grown, p.free)
		p.free = grown
	}
	for i := range block {
		p.free = append(p.free, &block[i])
	}
}

// Put returns a request to the free list. The caller must not touch
// the request afterwards.
func (p *Pool) Put(r *Request) {
	if r == nil {
		return
	}
	p.puts++
	p.free = append(p.free, r)
}

// Outstanding reports how many requests have been handed out and not
// returned; useful for leak checks in tests.
func (p *Pool) Outstanding() int64 {
	return p.nextID - p.puts
}
