package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Name: "s", Parent: parent, Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// A grid [0,10] whose two workers run cells [1,5] and [3,8] at once;
	// the second cell has a child [4,6] and one [7,9] that outlives it.
	spans := []span{
		sp(0, -1, 0, 10),
		sp(1, 0, 1, 5),
		sp(2, 0, 3, 8),
		sp(3, 2, 4, 6),
		sp(4, 2, 7, 9),
	}
	got := selfTimes(spans)
	want := []time.Duration{3, 4, 2, 2, 2} // 10-|[1,8]|, 4, 5-|[4,6]∪[7,8]|, ...
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExactlyOne(t *testing.T) {
	iv := [][2]time.Duration{{0, 4}, {1, 3}, {3, 6}, {5, 9}}
	// One active on [0,1], [4,5] and [6,9].
	if got := exactlyOne(iv); got != 5 {
		t.Fatalf("exactlyOne = %v, want 5", got)
	}
}

func TestChromeLanesSeparateOverlappingSiblings(t *testing.T) {
	spans := []span{sp(0, -1, 0, 10), sp(1, 0, 1, 5), sp(2, 0, 3, 8), sp(3, 0, 6, 9), sp(4, 2, 4, 5)}
	lane := lanes(spans)
	if lane[1] == lane[2] || lane[2] == lane[3] {
		t.Fatalf("overlapping siblings share a lane: %v", lane)
	}
	if lane[4] != lane[2] {
		t.Fatalf("child lane %d, parent lane %d", lane[4], lane[2])
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 0.01 {
		t.Fatalf("trace events %+v", doc.TraceEvents)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	err := tr.do("outer", -1, func(id int) error {
		return tr.do("inner", id, func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].End > spans[0].End || spans[0].End == 0 {
		t.Fatalf("spans %+v", spans)
	}
}
