// Native fuzz targets for the flag-value parsers. Two invariants per
// parser: no input panics, and every accepted input yields a
// configuration that passes its own Validate (the CLIs rely on parse
// success implying a runnable config). The enum parsers additionally
// round-trip: Parse(p.String()) == p, so the canonical names the CLIs
// print are always re-parseable.
//
// Run as smokes via scripts/fuzz_smoke.sh, or at length with
// go test -fuzz FuzzParseArrival ./internal/serving.

package serving

import (
	"math"
	"testing"
)

func FuzzParseArrival(f *testing.F) {
	// Seeds: every shape the unit tests and the -arrival docs exercise,
	// plus malformed edges (empty fields, bad numbers, trailing colons).
	for _, s := range []string{
		"", "poisson",
		"burst:40000:0.25:6", "burst:80000:0.4:6",
		"ramp:200000:4", "diurnal:120000:3",
		"trace:30000:1,4,0.5,8", "trace:30000:1",
		"burst:40000:0.25", "burst:x:0.25:6", "burst:40000:1.5:6",
		"ramp:0:4", "diurnal:120000:NaN", "trace:30000:",
		"trace:30000:1,,2", "poisson:1", ":", "burst:Inf:0.5:2",
		// A period so short that clock/period overflows int.
		"trace:1e-300:1,2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseArrival(s)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseArrival(%q) accepted an invalid config %+v: %v", s, cfg, verr)
		}
		// The instantaneous rate must stay usable at any clock for
		// accepted configs — a non-positive or non-finite multiplier
		// would corrupt the arrival draw downstream.
		for _, clock := range []float64{0, 1, 1e6, 1e12} {
			if r := cfg.rate(clock); !(r > 0) || math.IsInf(r, 0) || math.IsNaN(r) {
				t.Fatalf("ParseArrival(%q): rate(%g) = %g", s, clock, r)
			}
		}
	})
}

func FuzzParseSchedPolicy(f *testing.F) {
	for _, s := range []string{
		"decode-only", "prefill-first", "chunked", "", "Chunked", "decode", "chunked ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSchedPolicy(s)
		if err != nil {
			return
		}
		back, err := ParseSchedPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParseSchedPolicy(%q) = %v, which does not round-trip: %v, %v", s, p, back, err)
		}
	})
}

func FuzzParsePreemptPolicy(f *testing.F) {
	for _, s := range []string{
		"off", "", "newest", "fewest-tokens", "oldest", "NEWEST", "fewest",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePreemptPolicy(s)
		if err != nil {
			return
		}
		back, err := ParsePreemptPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePreemptPolicy(%q) = %v, which does not round-trip: %v, %v", s, p, back, err)
		}
	})
}
