package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunValidation: malformed flags are rejected before any
// simulation starts; -scale 0 used to panic dividing the L2 size.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale must be positive"},
		{"negative scale", []string{"-scale=-4"}, "-scale must be positive"},
		{"bad model", []string{"-model", "13b"}, "unknown model"},
		{"bad kind", []string{"-kind", "bogus", "-seq", "256", "-scale", "64"}, "unknown sweep kind"},
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

// TestRunGearSweep: a small gear sweep prints the baseline line and
// one row per max-gear point.
func TestRunGearSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "gear", "-model", "llama3-70b", "-seq", "256", "-scale", "64"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 8 || !strings.HasPrefix(lines[0], "workload logit/llama3-70b/L256, L2 256 KiB") ||
		!strings.HasPrefix(lines[3], "gear 0") || !strings.HasPrefix(lines[7], "gear 4") {
		t.Errorf("gear sweep printed:\n%s", out.String())
	}
}
