package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{3}, 3, 3},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{0.9, 1.0, 1.1, 1.0, 1.05}, 0.95, 1.0750000000000002},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize("s", []float64{4, 1, 3, 2, 5})
	if s.Median != 3 || s.Max != 5 || s.N != 5 || s.Q1 != 1.5 || s.Q3 != 4.5 {
		t.Fatalf("summary %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	if two := summarize("s", []float64{1, 2}); two.Median != 1.5 {
		t.Fatalf("median of two = %v", two.Median)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summarize("s", []float64{m * 0.99, m, m * 1.01, m, m}) }
	lower := bound{Rel: 0.1, Better: "lower"}
	higher := bound{Rel: 0.1, Better: "higher"}
	cases := []struct {
		name     string
		old, cur summary
		b        bound
		want     string
	}{
		{"slower beyond bound", tight(1), tight(1.2), lower, "worse"},
		{"faster beyond bound", tight(1), tight(0.85), lower, "better"},
		{"within bound", tight(1), tight(1.05), lower, "same"},
		{"direction: higher is better", tight(1), tight(0.85), higher, "worse"},
		{"direction: higher rises", tight(1), tight(1.2), higher, "better"},
		// 1 ms -> 15 ms is +1400%, but within the 0.02 s floor.
		{"absolute floor", tight(0.001), tight(0.015), bound{Rel: 0.1, Abs: 0.02, Better: "lower"}, "same"},
		{"beyond absolute floor", tight(0.001), tight(0.03), bound{Rel: 0.1, Abs: 0.02, Better: "lower"}, "worse"},
		{"spread wider than bound", summarize("s", []float64{0.7, 1, 1.3, 0.8, 1.2}), tight(1.3), lower, "unresolved"},
		{"wide spread but every run better", summarize("s", []float64{1.7, 2, 2.3, 1.8, 2.2}), tight(1), lower, "better"},
		{"no samples", summary{}, tight(1), lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.cur, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
