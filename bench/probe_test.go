package main

import (
	"math"
	"testing"
)

func TestRelative(t *testing.T) {
	v := map[string][]float64{
		"probe_s":     {0.3, 0.1, 0.2},
		"wall_s":      {1, 2},
		"warm_wall_s": {0.5},
	}
	relative(v)
	want := map[string][]float64{"wall_rel": {5, 10}, "warm_wall_rel": {2.5}}
	for k, w := range want {
		got := v[k]
		if len(got) != len(w) {
			t.Fatalf("%s = %v, want %v", k, got, w)
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-12 {
				t.Fatalf("%s = %v, want %v (each sample over the median probe)", k, got, w)
			}
		}
	}

	unprobed := map[string][]float64{"wall_s": {1}}
	relative(unprobed)
	if _, ok := unprobed["wall_rel"]; ok {
		t.Fatal("a run without probes got a relative metric")
	}
}
