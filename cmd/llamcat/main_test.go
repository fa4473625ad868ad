package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/goldentest"
)

// TestRunValidation: malformed flags are rejected before any
// simulation starts.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0", "-exp", "fig7a"}, "-scale must be positive"},
		{"negative scale", []string{"-scale=-4"}, "-scale must be positive"},
		{"bad model", []string{"-model", "13b"}, "unknown model"},
		{"bad policy", []string{"-policy", "bogus"}, "bogus"},
		{"bad experiment", []string{"-exp", "fig10"}, "unknown experiment"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunSingleCobrra: the label the figures print for COBRRA runs as
// a single cell (no throttling, COBRRA arbitration).
func TestRunSingleCobrra(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "cobrra", "-seq", "256", "-l2", "256KiB"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "policy    none+cobrra") {
		t.Errorf("single run printed:\n%s", out.String())
	}
}

// TestExpAllGolden pins the whole `llamcat -exp all -scale 128` report
// (every figure and table, 97 simulation cells) byte for byte, Fig. 8
// and Fig. 9(b) included, which no benchmark fingerprint covers.
func TestExpAllGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-scale", "128"}, &out); err != nil {
		t.Fatal(err)
	}
	goldentest.CompareBytes(t, "testdata/exp_all_scale128.golden.txt", out.Bytes())
}
