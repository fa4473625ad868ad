package arbiter

import (
	"testing"
	"testing/quick"

	"repro/internal/memreq"
	"repro/internal/ring"
)

func queueOf(reqs ...*memreq.Request) *ring.Ring[*memreq.Request] {
	q := ring.New[*memreq.Request](16)
	for _, r := range reqs {
		q.Push(r)
	}
	return q
}

func req(core int, line uint64) *memreq.Request {
	return &memreq.Request{Core: core, Line: line}
}

func emptyCtx(numCores int) *Context {
	return &Context{
		Served:   make([]int64, numCores),
		MSHRView: func(uint64) (bool, int) { return false, 0 },
		HitBuf:   NewHitBuffer(8, nil),
		Sent:     NewSentReqs(8, nil),
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"fcfs": FCFS, "default": FCFS, "unopt": FCFS,
		"B": Balanced, "balanced": Balanced,
		"MA": MA, "ma": MA, "BMA": BMA, "cobrra": COBRRA,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q)=%v,%v want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
	for _, k := range []Kind{FCFS, Balanced, MA, BMA, COBRRA} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestHitBufferFIFO(t *testing.T) {
	h := NewHitBuffer(2, nil)
	h.Push(1)
	h.Push(2)
	if !h.Contains(1) || !h.Contains(2) {
		t.Fatal("pushed lines missing")
	}
	h.Push(3) // evicts 1
	if h.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !h.Contains(2) || !h.Contains(3) {
		t.Fatal("recent entries lost")
	}
	if h.Len() != 2 {
		t.Fatalf("Len=%d", h.Len())
	}
}

func TestSentReqsExpiry(t *testing.T) {
	s := NewSentReqs(4, nil)
	s.Push(10, false, 5)
	s.Push(20, true, 6)
	s.Push(30, false, 7)
	if !s.ContainsMiss(10) || !s.ContainsMiss(30) {
		t.Fatal("tracked misses missing")
	}
	if s.ContainsMiss(20) {
		t.Fatal("spec-hit entry must be masked out of MSHR estimation")
	}
	s.Expire(5)
	if s.ContainsMiss(10) {
		t.Fatal("expired entry still visible")
	}
	if !s.ContainsMiss(30) {
		t.Fatal("unexpired entry dropped")
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d after expiry", s.Len())
	}
}

func TestFCFSPicksOldest(t *testing.T) {
	p := New(FCFS)
	q := queueOf(req(0, 100), req(1, 200))
	idx, _ := p.Select(q, emptyCtx(4))
	if idx != 0 {
		t.Fatalf("FCFS picked %d", idx)
	}
	if p.Kind() != FCFS || p.RespArb() != RespQueueFirst {
		t.Fatal("FCFS identity wrong")
	}
}

func TestBalancedPicksLeastServed(t *testing.T) {
	p := New(Balanced)
	ctx := emptyCtx(4)
	ctx.Served[0] = 10
	ctx.Served[1] = 3
	ctx.Served[2] = 7
	q := queueOf(req(0, 1), req(2, 2), req(1, 3))
	idx, _ := p.Select(q, ctx)
	if idx != 2 {
		t.Fatalf("Balanced picked index %d (core %d), want the core with fewest served", idx, q.At(idx).Core)
	}
	// Tie: first in queue order wins.
	ctx.Served[0] = 3
	idx, _ = p.Select(q, ctx)
	if idx != 0 {
		t.Fatalf("Balanced tie-break picked %d, want oldest", idx)
	}
}

func TestMAPriorities(t *testing.T) {
	p := New(MA)
	ctx := emptyCtx(4)
	ctx.HitBuf.Push(300)                                             // line 300: inferred cache hit
	ctx.MSHRView = func(l uint64) (bool, int) { return l == 200, 1 } // line 200: MSHR hit

	// Queue: other, MSHR-hit, cache-hit (oldest first).
	q := queueOf(req(0, 100), req(1, 200), req(2, 300))
	idx, spec := p.Select(q, ctx)
	if idx != 2 || !spec {
		t.Fatalf("MA picked %d spec=%v, want inferred cache hit first", idx, spec)
	}
	// Without the cache hit, MSHR hit wins.
	q = queueOf(req(0, 100), req(1, 200))
	idx, spec = p.Select(q, ctx)
	if idx != 1 || spec {
		t.Fatalf("MA picked %d spec=%v, want MSHR hit", idx, spec)
	}
	// sent_reqs misses count as MSHR hits too.
	ctx.Sent.Push(100, false, 50)
	q = queueOf(req(3, 400), req(0, 100))
	idx, _ = p.Select(q, ctx)
	if idx != 1 {
		t.Fatalf("MA ignored sent_reqs: picked %d", idx)
	}
	// But spec-hit entries in sent_reqs must not.
	ctx2 := emptyCtx(4)
	ctx2.Sent.Push(500, true, 50)
	q = queueOf(req(0, 600), req(1, 500))
	idx, _ = p.Select(q, ctx2)
	if idx != 0 {
		t.Fatalf("MA treated masked sent entry as MSHR hit: picked %d", idx)
	}
}

func TestMAFCFSTieBreak(t *testing.T) {
	p := New(MA)
	ctx := emptyCtx(4)
	ctx.Served[0] = 100 // would matter for BMA, not MA
	q := queueOf(req(0, 1), req(1, 2))
	idx, _ := p.Select(q, ctx)
	if idx != 0 {
		t.Fatalf("MA tie-break must be FCFS, picked %d", idx)
	}
}

func TestBMABalancedTieBreak(t *testing.T) {
	p := New(BMA)
	ctx := emptyCtx(4)
	ctx.Served[0] = 100
	ctx.Served[1] = 1
	q := queueOf(req(0, 1), req(1, 2))
	idx, _ := p.Select(q, ctx)
	if idx != 1 {
		t.Fatalf("BMA tie-break must be balanced, picked %d", idx)
	}
	// Class still dominates the tie-break.
	ctx.HitBuf.Push(1)
	idx, spec := p.Select(q, ctx)
	if idx != 0 || !spec {
		t.Fatalf("BMA class ordering broken: %d %v", idx, spec)
	}
}

func TestCOBRRAIdentity(t *testing.T) {
	p := New(COBRRA)
	if p.RespArb() != ReqFirstAlternate {
		t.Fatal("COBRRA must use request-first alternation")
	}
	q := queueOf(req(1, 9), req(0, 8))
	idx, _ := p.Select(q, emptyCtx(4))
	if idx != 0 {
		t.Fatalf("COBRRA request selection must be FCFS, picked %d", idx)
	}
}

// Select must always return a valid index for any queue content.
func TestSelectValidIndexProperty(t *testing.T) {
	kinds := []Kind{FCFS, Balanced, MA, BMA, COBRRA}
	check := func(kindRaw uint8, cores []uint8, lines []uint8, hitLines []uint8) bool {
		if len(cores) == 0 {
			return true
		}
		if len(lines) < len(cores) {
			return true
		}
		p := New(kinds[int(kindRaw)%len(kinds)])
		ctx := emptyCtx(8)
		for _, h := range hitLines {
			ctx.HitBuf.Push(uint64(h % 16))
		}
		q := ring.New[*memreq.Request](len(cores))
		for i := range cores {
			q.Push(req(int(cores[i]%8), uint64(lines[i]%16)))
		}
		idx, _ := p.Select(q, ctx)
		return idx >= 0 && idx < q.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// filterOp is one step of a random history of the structures the
// classification filter tracks.
type filterOp struct {
	Kind uint8 // hit-buffer push, sent_reqs push, expiry, MSHR alloc, merge or release
	Line uint8 // index into filterLines
	Spec bool  // sent_reqs push: speculated a hit
}

// queuedReq is one request of a random queue.
type queuedReq struct {
	Line uint8 // index into filterLines
	Core int8  // Served has 4 entries; other values are out of range
}

// filterLines is the line pool of TestFilterSelectProperty: eight
// lines and, for each, another line in the same filter bucket, so
// that untracked lines share a bucket with tracked ones.
var filterLines = func() []uint64 {
	lines := []uint64{0, 1, 2, 3, 64, 65, 4096, 1 << 40}
	for _, l := range lines[:8] {
		for c := l + 1; ; c++ {
			if filterBucket(c) == filterBucket(l) {
				lines = append(lines, c)
				break
			}
		}
	}
	return lines
}()

// TestFilterRemoveUntracked: Remove undoes Add bucket by bucket, and
// removing a line from an empty bucket panics instead of wrapping the
// count, naming the line. A line sharing a bucket with a tracked one
// cannot be told apart, so only an empty bucket is caught.
func TestFilterRemoveUntracked(t *testing.T) {
	var f Filter
	f.Add(7)
	f.Add(7)
	f.Remove(7)
	if !f.MayHold(7) {
		t.Fatal("one of two adds removed, the line is gone")
	}
	f.Remove(7)
	if f.MayHold(7) {
		t.Fatal("every add removed, the line is still held")
	}
	removeOf := func(line uint64) (v any) {
		defer func() { v = recover() }()
		f.Remove(line)
		return nil
	}
	v := removeOf(7)
	err, ok := v.(error)
	if !ok {
		t.Fatalf("removing an untracked line recovered %v, want an error panic", v)
	}
	if want := "arbiter: Filter.Remove of untracked line 0x7"; err.Error() != want {
		t.Fatalf("panic %q, want %q", err, want)
	}
	if f.MayHold(7) {
		t.Fatal("a panicking Remove changed the count")
	}
}

// TestFilterSelectProperty: over random histories of hit-buffer
// pushes, sent_reqs pushes, drops and expiries and MSHR allocations,
// merges and releases, and over random queues with repeated lines and
// out-of-range cores, MA and BMA select exactly the same (index,
// specHit) with the filter as without it, and the filter holds every
// line a from-scratch classification does not class "other". Every
// class occurs, as does a line the filter cannot rule out that still
// classes "other".
func TestFilterSelectProperty(t *testing.T) {
	const numTarget = 2
	var classes [classStall + 1]int
	collisions := 0
	check := func(ops []filterOp, queue []queuedReq) bool {
		if len(queue) > 12 {
			queue = queue[:12]
		}
		var f Filter
		mshr := map[uint64]int{} // line -> targets free
		ctx := &Context{
			Served: make([]int64, 4),
			MSHRView: func(line uint64) (bool, int) {
				free, ok := mshr[line]
				if !ok {
					return false, numTarget
				}
				return true, free
			},
			HitBuf: NewHitBuffer(3, &f),
			Sent:   NewSentReqs(3, &f),
		}
		q := ring.New[*memreq.Request](12)
		for _, r := range queue {
			q.Push(req(int(r.Core%6), filterLines[int(r.Line)%len(filterLines)]))
		}
		for now, op := range ops {
			line := filterLines[int(op.Line)%len(filterLines)]
			switch op.Kind % 6 {
			case 0:
				ctx.HitBuf.Push(line)
			case 1:
				ctx.Sent.Push(line, op.Spec, int64(now+3))
			case 2:
				ctx.Sent.Expire(int64(now))
			case 3:
				if _, ok := mshr[line]; !ok && len(mshr) < 4 {
					mshr[line] = numTarget
					f.Add(line)
				}
			case 4:
				if free, ok := mshr[line]; ok && free > 0 {
					mshr[line] = free - 1
				}
			case 5:
				if _, ok := mshr[line]; ok {
					delete(mshr, line)
					f.Remove(line)
				}
			}
			for _, l := range filterLines {
				class, _ := ctx.classify(l)
				if class != classOther && !f.MayHold(l) {
					return false
				}
			}
			for i := 0; i < q.Len(); i++ {
				l := q.At(i).Line
				class, _ := ctx.classify(l)
				classes[class]++
				if class == classOther && f.MayHold(l) {
					collisions++
				}
			}
			if q.Len() == 0 {
				continue
			}
			served := 0
			for _, kind := range []Kind{MA, BMA} {
				p := New(kind)
				ctx.Filter = nil
				wantIdx, wantSpec := p.Select(q, ctx)
				ctx.Filter = &f
				gotIdx, gotSpec := p.Select(q, ctx)
				if gotIdx != wantIdx || gotSpec != wantSpec {
					return false
				}
				served = wantIdx
			}
			// Count the BMA selection as served, as the slice does, so
			// the balanced tie-break sees changing counts.
			if c := q.At(served).Core; c >= 0 && c < len(ctx.Served) {
				ctx.Served[c]++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	t.Logf("classes %v collisions %d", classes, collisions)
	for class, n := range classes {
		if n == 0 {
			t.Errorf("no queued request classed %d", class)
		}
	}
	if collisions == 0 {
		t.Error("no untracked line shared a bucket with a tracked one")
	}
}

// TestPolicyIdentity: every kind's policy reports its own kind and the
// request-response arbitration flavour it runs with.
func TestPolicyIdentity(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		resp RespArb
	}{
		{FCFS, RespQueueFirst}, {Balanced, RespQueueFirst}, {MA, RespQueueFirst},
		{BMA, RespQueueFirst}, {COBRRA, ReqFirstAlternate},
	} {
		p := New(c.kind)
		if p.Kind() != c.kind || p.RespArb() != c.resp {
			t.Errorf("New(%v): kind %v, flavour %v; want %v, %v", c.kind, p.Kind(), p.RespArb(), c.kind, c.resp)
		}
	}
}

// TestResetAndSetFilter: the rewind a slice performs when its engine is
// re-aimed. After Reset a hit buffer and a sent_reqs FIFO hold nothing,
// Clear empties their old filter, and SetFilter makes a new filter (or
// none) track only what they hold from then on.
func TestResetAndSetFilter(t *testing.T) {
	var old, next Filter
	h := NewHitBuffer(2, &old)
	s := NewSentReqs(4, &old)
	h.Push(1)
	s.Push(2, false, 10)
	h.Reset()
	s.Reset()
	if h.Len() != 0 || h.Contains(1) || s.Len() != 0 || s.ContainsMiss(2) {
		t.Fatal("Reset kept entries")
	}
	old.Clear()
	if old.MayHold(1) || old.MayHold(2) {
		t.Fatal("Clear kept lines")
	}

	h.SetFilter(&next)
	s.SetFilter(&next)
	h.Push(3)
	s.Push(4, false, 5)
	s.Push(5, true, 6)
	if !next.MayHold(3) || !next.MayHold(4) || next.MayHold(5) {
		t.Fatal("the new filter does not track exactly the buffer's hits and the FIFO's misses")
	}
	if old.MayHold(3) || old.MayHold(4) {
		t.Fatal("the old filter still tracks pushes")
	}
	// Reset also forgot the old front expiry (10), so entry 4 expires
	// at 5 and leaves the filter.
	s.Expire(5)
	if s.ContainsMiss(4) || next.MayHold(4) {
		t.Fatal("entry 4 outlived its expiry after Reset")
	}

	h.SetFilter(nil)
	s.SetFilter(nil)
	h.Reset()
	s.Reset()
	next.Clear()
	h.Push(6)
	s.Push(7, false, 8)
	if !h.Contains(6) || !s.ContainsMiss(7) || next.MayHold(6) || next.MayHold(7) {
		t.Fatal("without a filter the structures must still track, and update no filter")
	}
}
