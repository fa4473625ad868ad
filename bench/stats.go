package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// summary is one metric's samples on one workload with the statistics
// the benchmark prints for it.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, Values: values, N: len(values)}
	if len(values) == 0 {
		return s
	}
	s.Median = median(values)
	s.Q1, s.Q3 = quartiles(values)
	s.Max = values[0]
	for _, v := range values {
		s.Max = math.Max(s.Max, v)
	}
	return s
}

func median(values []float64) float64 {
	x := sorted(values)
	n := len(x)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method, which extrapolates for two samples), so spreads
// printed here match the usual scripted analysis of the same values.
// One sample is its own quartiles.
func quartiles(values []float64) (q1, q3 float64) {
	x := sorted(values)
	ld := len(x)
	if ld == 1 {
		return x[0], x[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (x[j-1]*float64(n-delta) + x[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sorted(values []float64) []float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	return x
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// bound is the regression rule of one end-to-end metric: the median may
// worsen by Rel (a share of the old median) or by Abs (in the metric's
// unit), whichever is larger.
type bound struct {
	Rel    float64
	Abs    float64
	Better string // "lower" or "higher"
}

// absFloors are the absolute parts of the bounds; BENCHMARK.json holds
// only the relative parts. Set-up time is a few milliseconds, where
// process start-up jitter exceeds any useful share.
var absFloors = map[string]float64{"setup_s": 0.02}

// verdict compares two sets of runs of one metric on one workload. It
// is "unresolved" when either side's spread is wider than the bound,
// unless every new run is better than every old run; otherwise "worse"
// or "better" when the medians differ by more than the bound, and
// "same" when they do not.
func verdict(old, cur summary, b bound) string {
	if old.N == 0 || cur.N == 0 {
		return "unresolved"
	}
	// gain > 0 means cur is better than old.
	gain := func(from, to float64) float64 {
		if b.Better == "higher" {
			return to - from
		}
		return from - to
	}
	allBetter := true
	for _, o := range old.Values {
		for _, c := range cur.Values {
			if gain(o, c) <= 0 {
				allBetter = false
			}
		}
	}
	limit := math.Max(b.Rel*math.Abs(old.Median), b.Abs)
	rel := limit / math.Abs(old.Median)
	if old.spread() > rel || cur.spread() > rel {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	switch g := gain(old.Median, cur.Median); {
	case g < -limit:
		return "worse"
	case g > limit:
		return "better"
	}
	return "same"
}

// report is what one benchmark invocation measured: per workload, per
// metric, every sample. -out writes it; -compare reads two of them.
type report struct {
	Seed      uint64                        `json:"seed"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound)
	for _, m := range s.EndToEnd {
		out[m.Name] = bound{Rel: m.Bound, Abs: absFloors[m.Name], Better: m.Better}
	}
	return out, nil
}

// compare prints a verdict for every (workload, end-to-end metric) pair
// present in both reports and returns how many are worse.
func compare(w io.Writer, old, cur *report, bounds map[string]bound) int {
	worse := 0
	fmt.Fprintf(w, "%-22s %-12s %14s %14s %9s  %s\n", "workload", "metric", "old median", "new median", "change", "verdict")
	for _, wl := range workloadNames() {
		om, cm := old.Workloads[wl], cur.Workloads[wl]
		for _, name := range sortedKeys(bounds) {
			o, ok1 := om[name]
			c, ok2 := cm[name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(o, c, bounds[name])
			if v == "worse" {
				worse++
			}
			change := 0.0
			if o.Median != 0 {
				change = (c.Median - o.Median) / math.Abs(o.Median) * 100
			}
			fmt.Fprintf(w, "%-22s %-12s %14.6g %14.6g %+8.1f%%  %s\n", wl, name, o.Median, c.Median, change, v)
		}
	}
	return worse
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
