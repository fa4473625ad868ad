package noc

import (
	"testing"

	"repro/internal/memreq"
)

func testNoC(t *testing.T) *NoC {
	t.Helper()
	n, err := New(Config{Latency: 4, SliceIngestPer: 1, SliceBufCap: 3}, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Latency: -1, SliceIngestPer: 1, SliceBufCap: 1},
		{Latency: 1, SliceIngestPer: 0, SliceBufCap: 1},
		{Latency: 1, SliceIngestPer: 1, SliceBufCap: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRequestLatency(t *testing.T) {
	n := testNoC(t)
	r := &memreq.Request{Line: 7, Core: 0}
	n.SendReq(r, 1, 10)
	delivered := false
	accept := func(req *memreq.Request) bool {
		delivered = true
		if req != r {
			t.Fatal("wrong request delivered")
		}
		return true
	}
	// Before arrival: nothing.
	n.DeliverReqs(1, 13, accept)
	if delivered {
		t.Fatal("delivered before latency elapsed")
	}
	n.DeliverReqs(1, 14, accept)
	if !delivered {
		t.Fatal("not delivered at latency")
	}
	if r.ArriveCycle != 14 {
		t.Fatalf("ArriveCycle=%d", r.ArriveCycle)
	}
	if n.Pending() != 0 {
		t.Fatalf("pending=%d after delivery", n.Pending())
	}
}

func TestBackpressureAndHOL(t *testing.T) {
	n := testNoC(t)
	for i := 0; i < 3; i++ {
		if !n.CanSendReq(0) {
			t.Fatalf("buffer full at %d", i)
		}
		n.SendReq(&memreq.Request{Line: uint64(i)}, 0, 0)
	}
	if n.CanSendReq(0) {
		t.Fatal("buffer cap not enforced")
	}
	if !n.CanSendReq(1) {
		t.Fatal("other slice should have space")
	}
	// Slice rejects: head-of-line blocks, nothing delivered after.
	calls := 0
	n.DeliverReqs(0, 100, func(*memreq.Request) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("HOL: %d accept calls, want 1", calls)
	}
	if n.SliceQueueLen(0) != 3 {
		t.Fatal("rejected request left the queue")
	}
	// Ingest rate: one per call even when accepted.
	n.DeliverReqs(0, 100, func(*memreq.Request) bool { return true })
	if n.SliceQueueLen(0) != 2 {
		t.Fatalf("queue=%d after one ingest", n.SliceQueueLen(0))
	}
}

func TestRequestOrdering(t *testing.T) {
	n := testNoC(t)
	for i := 0; i < 3; i++ {
		n.SendReq(&memreq.Request{Line: uint64(i)}, 0, int64(i))
	}
	var got []uint64
	for now := int64(0); now < 20; now++ {
		n.DeliverReqs(0, now, func(r *memreq.Request) bool {
			got = append(got, r.Line)
			return true
		})
	}
	for i, l := range got {
		if l != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestResponseDelivery(t *testing.T) {
	n := testNoC(t)
	n.SendResp(Delivery{Line: 5, Core: 1, Window: 2, ReqID: 9}, 0)
	n.SendResp(Delivery{Line: 6, Core: 1}, 1)
	var got []Delivery
	n.DeliverResps(1, 3, func(d Delivery) { got = append(got, d) })
	if len(got) != 0 {
		t.Fatal("response delivered early")
	}
	n.DeliverResps(1, 4, func(d Delivery) { got = append(got, d) })
	if len(got) != 1 || got[0].Line != 5 || got[0].Window != 2 {
		t.Fatalf("first response wrong: %+v", got)
	}
	n.DeliverResps(1, 5, func(d Delivery) { got = append(got, d) })
	if len(got) != 2 || got[1].Line != 6 {
		t.Fatalf("second response wrong: %+v", got)
	}
	// Core 0 receives nothing.
	n.DeliverResps(0, 100, func(Delivery) { t.Fatal("misrouted response") })
}

func TestZeroLatency(t *testing.T) {
	n, err := New(Config{Latency: 0, SliceIngestPer: 2, SliceBufCap: 4}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.SendReq(&memreq.Request{Line: 1}, 0, 5)
	n.SendReq(&memreq.Request{Line: 2}, 0, 5)
	count := 0
	n.DeliverReqs(0, 5, func(*memreq.Request) bool { count++; return true })
	if count != 2 {
		t.Fatalf("zero-latency ingest=%d want 2 (SliceIngestPer)", count)
	}
}

type wakeLog struct{ reqs, resps [][3]int64 }

func (w *wakeLog) ReqDue(slice int, now, at int64) {
	w.reqs = append(w.reqs, [3]int64{int64(slice), now, at})
}

func (w *wakeLog) RespDue(core int, now, at int64) {
	w.resps = append(w.resps, [3]int64{int64(core), now, at})
}

// The Waker hears of a flit only when it becomes the head of an empty
// path; DeliverReqs reports freed space only when a full path pops.
func TestWaker(t *testing.T) {
	n := testNoC(t) // latency 4, buffer cap 3
	var w wakeLog
	n.SetWaker(&w)
	for i := 0; i < 3; i++ {
		n.SendReq(&memreq.Request{Line: uint64(i)}, 1, int64(10+i))
	}
	n.SendResp(Delivery{Line: 1, Core: 0}, 20)
	n.SendResp(Delivery{Line: 2, Core: 0}, 21)
	if len(w.reqs) != 1 || w.reqs[0] != [3]int64{1, 10, 14} {
		t.Fatalf("request notices %v, want one for the head sent at 10", w.reqs)
	}
	if len(w.resps) != 1 || w.resps[0] != [3]int64{0, 20, 24} {
		t.Fatalf("response notices %v, want one for the head sent at 20", w.resps)
	}
	accept := func(*memreq.Request) bool { return true }
	if !n.DeliverReqs(1, 14, accept) {
		t.Fatal("popping a full path did not report freed space")
	}
	if n.DeliverReqs(1, 15, accept) {
		t.Fatal("popping a path with space reported freed space")
	}
	if n.DeliverReqs(1, 15, func(*memreq.Request) bool { return false }) {
		t.Fatal("a refused delivery reported freed space")
	}
	if got := n.ReqFrontArrive(1); got != 16 {
		t.Fatalf("ReqFrontArrive=%d want 16", got)
	}
	n.DeliverResps(0, 24, func(Delivery) {})
	if got := n.RespFrontArrive(0); got != 25 {
		t.Fatalf("RespFrontArrive=%d want 25", got)
	}
	if len(w.reqs) != 1 || len(w.resps) != 1 {
		t.Fatal("a head exposed by a delivery was announced")
	}
}
