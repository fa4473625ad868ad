package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/stats"
)

func TestCanonSeriesFullPrecision(t *testing.T) {
	var b bytes.Buffer
	tenth := 0.1 // a variable, so the sum is rounded in float64
	canonSeries(&b, "p", []stats.Series{
		{Label: "a", Points: []stats.Point{{X: "1MB", Y: tenth + 0.2}, {X: "2MB", Y: 1}}},
		{Label: "b", Points: []stats.Point{{X: "1MB", Y: 1.0 / 3}}},
	})
	want := "p|a|1MB|0.30000000000000004\np|a|2MB|1\np|b|1MB|0.33333333333333331\n"
	if b.String() != want {
		t.Fatalf("canonical series:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCanonFleetIgnoresStepCacheDiagnostics(t *testing.T) {
	mk := func(hits int64) *cluster.Metrics {
		return &cluster.Metrics{
			Nodes: 2, Tokens: 10,
			StepCache: serving.StepCacheStats{MemoHits: hits},
			PerNode:   []*serving.Metrics{{Steps: 3, StepCache: serving.StepCacheStats{MemoHits: hits}}},
		}
	}
	a, err := canonFleet(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonFleet(mk(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("step-cache counters leak into the fingerprint:\n%s\n%s", a, b)
	}
	c := mk(1)
	c.Tokens = 11
	if d, _ := canonFleet(c); bytes.Equal(a, d) {
		t.Fatal("a simulated metric does not reach the fingerprint")
	}
}

func TestPermuteGapsKeepsWork(t *testing.T) {
	scn, err := prefixScenario(0)
	if err != nil {
		t.Fatal(err)
	}
	gaps := func(s cluster.Scenario) []int64 {
		var out []int64
		var prev int64
		for _, r := range s.Requests {
			out = append(out, r.ArrivalCycle-prev)
			prev = r.ArrivalCycle
		}
		return out
	}
	same, _ := prefixScenario(0)
	if !slices.Equal(gaps(same), gaps(scn)) {
		t.Fatal("seed 0 changed the population")
	}
	a, _ := prefixScenario(5)
	b, _ := prefixScenario(5)
	if !slices.Equal(gaps(a), gaps(b)) {
		t.Fatal("the same seed gave different arrivals")
	}
	if slices.Equal(gaps(a), gaps(scn)) {
		t.Fatal("seed 5 left the arrivals unchanged")
	}
	ga, g0 := gaps(a), gaps(scn)
	slices.Sort(ga)
	slices.Sort(g0)
	if !slices.Equal(ga, g0) {
		t.Fatal("the multiset of gaps changed")
	}
	for i, r := range a.Requests {
		o := scn.Requests[i]
		if r.ID != o.ID || r.PromptLen != o.PromptLen || r.PrefixLen != o.PrefixLen || r.DecodeTokens != o.DecodeTokens || r.Session != o.Session {
			t.Fatalf("request %d changed shape: %+v vs %+v", i, r, o)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
