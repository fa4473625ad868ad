package serving

import (
	"reflect"
	"testing"
)

// arrivalScenario draws the fixed test population under one arrival
// shape.
func arrivalScenario(t *testing.T, a ArrivalConfig) Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{
		Name: "arrivals", Seed: 13, NumRequests: 32,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 4,
		MeanInterArrival: 10000, MaxBatch: 4,
		Arrival: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestArrivalValidation covers the per-kind configuration rules.
func TestArrivalValidation(t *testing.T) {
	bad := []ArrivalConfig{
		{Kind: ArrivalPoisson, Period: 100},                             // poisson takes no parameters
		{Kind: ArrivalBurst, Period: 100, Duty: 0, Factor: 2},           // duty outside (0,1)
		{Kind: ArrivalBurst, Period: 100, Duty: 1, Factor: 2},           // duty outside (0,1)
		{Kind: ArrivalBurst, Period: 0, Duty: 0.5, Factor: 2},           // no period
		{Kind: ArrivalBurst, Period: 100, Duty: 0.5, Factor: 0},         // no factor
		{Kind: ArrivalRamp, Period: 100, Factor: 2, Duty: 0.5},          // duty is burst-only
		{Kind: ArrivalRamp, Period: -5, Factor: 2},                      // negative period
		{Kind: ArrivalDiurnal, Period: 100, Factor: -1},                 // negative factor
		{Kind: ArrivalTrace, Period: 100},                               // empty trace
		{Kind: ArrivalTrace, Period: 100, Trace: []float64{1, 0, 2}},    // non-positive multiplier
		{Kind: ArrivalTrace, Period: 100, Trace: []float64{1}, Duty: 1}, // stray parameter
		{Kind: ArrivalKind(99), Period: 100, Factor: 2},                 // unknown kind
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("config %+v accepted, want error", a)
		}
	}
	good := []ArrivalConfig{
		{},
		{Kind: ArrivalBurst, Period: 40000, Duty: 0.25, Factor: 6},
		{Kind: ArrivalRamp, Period: 200000, Factor: 4},
		{Kind: ArrivalDiurnal, Period: 120000, Factor: 3},
		{Kind: ArrivalTrace, Period: 30000, Trace: []float64{1, 4, 0.5, 8}},
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", a, err)
		}
	}
}

// TestParseArrival covers the flag grammar: canonical specs parse to
// the right shapes and malformed specs fail loudly.
func TestParseArrival(t *testing.T) {
	cases := []struct {
		spec string
		want ArrivalConfig
	}{
		{"", ArrivalConfig{}},
		{"poisson", ArrivalConfig{}},
		{"burst:40000:0.25:6", ArrivalConfig{Kind: ArrivalBurst, Period: 40000, Duty: 0.25, Factor: 6}},
		{"ramp:200000:4", ArrivalConfig{Kind: ArrivalRamp, Period: 200000, Factor: 4}},
		{"diurnal:120000:3", ArrivalConfig{Kind: ArrivalDiurnal, Period: 120000, Factor: 3}},
		{"trace:30000:1,4,0.5,8", ArrivalConfig{Kind: ArrivalTrace, Period: 30000, Trace: []float64{1, 4, 0.5, 8}}},
	}
	for _, c := range cases {
		got, err := ParseArrival(c.spec)
		if err != nil {
			t.Errorf("spec %q: %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("spec %q parsed to %+v, want %+v", c.spec, got, c.want)
		}
	}
	for _, spec := range []string{
		"bogus", "burst", "burst:100:0.5", "burst:100:0.5:2:9", "burst:x:0.5:2",
		"burst:100:2:2", "ramp:100", "ramp:100:0", "diurnal::3",
		"trace:100", "trace:100:", "trace:100:1,x", "trace:100:1,-2",
	} {
		if _, err := ParseArrival(spec); err == nil {
			t.Errorf("spec %q parsed, want error", spec)
		}
	}
}

// TestArrivalPoissonBitIdentity pins the RNG-stream contract: every
// shape draws one exponential gap per request from the same splitmix64
// stream, so a shape whose rate multiplier is identically 1 — a factor-1
// burst, or an all-ones trace — produces the byte-identical population
// of the plain Poisson generator.
func TestArrivalPoissonBitIdentity(t *testing.T) {
	base := arrivalScenario(t, ArrivalConfig{})
	for _, a := range []ArrivalConfig{
		{Kind: ArrivalBurst, Period: 40000, Duty: 0.5, Factor: 1},
		{Kind: ArrivalTrace, Period: 40000, Trace: []float64{1, 1, 1}},
	} {
		scn := arrivalScenario(t, a)
		if !reflect.DeepEqual(scn.Requests, base.Requests) {
			t.Errorf("%v at unit rate diverges from plain poisson", a.Kind)
		}
	}
}

// TestArrivalShapesCompressGaps: every shape with rate multipliers
// >= 1 produces pointwise no-later arrivals than plain Poisson over
// the same draw — strictly earlier somewhere — and keeps the
// population sorted with everything but arrival times untouched.
func TestArrivalShapesCompressGaps(t *testing.T) {
	base := arrivalScenario(t, ArrivalConfig{})
	for _, a := range []ArrivalConfig{
		{Kind: ArrivalBurst, Period: 40000, Duty: 0.5, Factor: 8},
		{Kind: ArrivalRamp, Period: 100000, Factor: 4},
		{Kind: ArrivalDiurnal, Period: 80000, Factor: 3},
		{Kind: ArrivalTrace, Period: 40000, Trace: []float64{1, 6, 2}},
	} {
		scn := arrivalScenario(t, a)
		strict := false
		for i, r := range scn.Requests {
			b := base.Requests[i]
			if r.ArrivalCycle > b.ArrivalCycle {
				t.Errorf("%v: request %d arrives at %d, later than poisson's %d", a.Kind, r.ID, r.ArrivalCycle, b.ArrivalCycle)
			}
			if r.ArrivalCycle < b.ArrivalCycle {
				strict = true
			}
			if i > 0 && r.ArrivalCycle < scn.Requests[i-1].ArrivalCycle {
				t.Errorf("%v: arrivals unsorted at request %d", a.Kind, r.ID)
			}
			// Only the arrival clock moves: prompts, budgets and IDs come
			// from the same draws.
			r.ArrivalCycle = b.ArrivalCycle
			if r != b {
				t.Errorf("%v: request %d differs beyond arrival time: %+v vs %+v", a.Kind, r.ID, r, b)
			}
		}
		if !strict {
			t.Errorf("%v: no arrival strictly earlier than poisson — shape had no effect", a.Kind)
		}
		// And the draw is reproducible.
		if again := arrivalScenario(t, a); !reflect.DeepEqual(scn, again) {
			t.Errorf("%v: repeated draws disagree", a.Kind)
		}
	}
}

// TestTraceArrivalTinyPeriod: a trace period so short that
// clock/period overflows int still draws a valid population — the
// index clamps to the last multiplier, and every arrival is
// non-negative and non-decreasing.
func TestTraceArrivalTinyPeriod(t *testing.T) {
	scn := arrivalScenario(t, ArrivalConfig{Kind: ArrivalTrace, Period: 1e-300, Trace: []float64{1, 2}})
	for i, r := range scn.Requests {
		if r.ArrivalCycle < 0 {
			t.Fatalf("request %d arrives at negative cycle %d", r.ID, r.ArrivalCycle)
		}
		if i > 0 && r.ArrivalCycle < scn.Requests[i-1].ArrivalCycle {
			t.Fatalf("arrivals decrease at request %d", r.ID)
		}
	}
}
