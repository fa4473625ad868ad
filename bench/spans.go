package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the call.
type span struct {
	ID     int
	Name   string
	Parent int // -1 for a root span
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit.
// Safe for concurrent use: grid workers open spans from two goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id and
// the function that closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	t.mu.Lock()
	id = len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id, func() {
		now := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func(id int) error) error {
	id, end := t.begin(name, parent)
	defer end()
	return fn(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// union returns the total length of the union of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to the span. Children may
// overlap one another (two grid workers run at once), so subtracting
// their summed durations would undercount.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{a, b})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - union(kids[i])
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += self[i].Seconds()
	}
	return out
}

// lanes assigns every span a display row: overlapping siblings get
// different rows, and a span inherits its parent's row unless a sibling
// already occupies it.
func lanes(spans []span) []int {
	lane := make([]int, len(spans))
	byParent := make(map[int][]int)
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s.ID)
	}
	var assign func(parent, base int)
	next := 0
	assign = func(parent, base int) {
		ids := byParent[parent]
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
		var busyUntil []time.Duration
		var rowLane []int
		for _, id := range ids {
			row := -1
			for r, until := range busyUntil {
				if until <= spans[id].Start {
					row = r
					break
				}
			}
			if row < 0 {
				row = len(busyUntil)
				busyUntil = append(busyUntil, 0)
				if row == 0 {
					rowLane = append(rowLane, base)
				} else {
					next++
					rowLane = append(rowLane, next)
				}
			}
			busyUntil[row] = spans[id].End
			lane[id] = rowLane[row]
			assign(id, lane[id])
		}
	}
	assign(-1, 0)
	return lane
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, microsecond timestamps), loadable in Perfetto or
// chrome://tracing.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	lane := lanes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane[i],
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
