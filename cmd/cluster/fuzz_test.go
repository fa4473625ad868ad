// Native fuzz target for the numeric list parser behind -rates and
// every other numeric comma list: no input panics and every accepted
// list holds only positive (or, where zero is allowed, non-negative)
// finite entries — strconv.ParseFloat happily reads "NaN" and "Inf",
// which a plain r <= 0 check does not reject (all NaN comparisons are
// false), so the parser must filter non-finite values explicitly.

package main

import (
	"math"
	"testing"

	"repro/internal/cli"
)

func FuzzParseRates(f *testing.F) {
	for _, s := range []string{
		"1", "1,2,4", "0.5, 2", "1,,2", "", ",", "x", "-1", "0",
		"NaN", "Inf", "-Inf", "1,NaN", "1e400", "1e-300", "2,inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := cli.ParseList[float64]("-rates", s, false)
		if err == nil {
			checkList(t, s, rates, false)
		}
		if nodes, err := cli.ParseList[int]("-nodes", s, false); err == nil {
			checkList(t, s, nodes, false)
		}
		if caches, err := cli.ParseList[int64]("-prefix-caches", s, true); err == nil {
			checkList(t, s, caches, true)
		}
	})
}

func checkList[T int | int64 | float64](t *testing.T, s string, list []T, zeroOK bool) {
	if len(list) == 0 {
		t.Fatalf("ParseList(%q) accepted an empty list", s)
	}
	for _, v := range list {
		if x := float64(v); !(x > 0 || zeroOK && x == 0) || math.IsInf(x, 0) {
			t.Fatalf("ParseList(%q) accepted out-of-range or non-finite entry %v", s, v)
		}
	}
}
