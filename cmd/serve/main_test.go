package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestRunValidation: every malformed flag combination is rejected by
// run with a flag-level message before any simulation starts.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero streams", []string{"-streams", "0"}, "-streams"},
		{"zero batch", []string{"-batch", "0"}, "-batch"},
		{"inverted decode range", []string{"-tokmin", "8", "-tokmax", "4"}, "-tokmin"},
		{"zero tokmin", []string{"-tokmin", "0"}, "-tokmin"},
		{"negative rate", []string{"-rate=-1"}, "-rate"},
		{"NaN rate", []string{"-rate", "NaN"}, "-rate"},
		{"negative kvcap", []string{"-kvcap=-1"}, "-kvcap"},
		{"bad model", []string{"-model", "13b"}, "model mix"},
		{"bad sched", []string{"-sched", "fifo"}, "scheduler"},
		{"bad stepcache", []string{"-stepcache", "maybe"}, "step-cache"},
		{"bad arrival spec", []string{"-arrival", "burst:100:0.5"}, "burst"},
		{"arrival duty out of range", []string{"-arrival", "burst:100:2:4"}, "duty"},
		{"bad preempt policy", []string{"-preempt", "oldest"}, "preempt"},
		{"preempt without kvcap", []string{"-sched", "chunked", "-preempt", "newest"}, "KV"},
		{"preempt without prefill sched", []string{"-kvcap", "256", "-preempt", "newest"}, "preempt"},
		{"negative slo-ttft", []string{"-slo-ttft=-5"}, "-slo-ttft"},
		{"explicit zero slo-ttft", []string{"-slo-ttft", "0"}, "-slo-ttft"},
		{"negative slo-tbt", []string{"-slo-tbt=-0.5"}, "-slo-tbt"},
		{"explicit zero slo-tbt", []string{"-slo-tbt", "0"}, "-slo-tbt"},
		{"empty policy list", []string{"-policies", " , "}, "policy"},
		{"bad policy", []string{"-policies", "unopt,bogus"}, "bogus"},
		{"negative sample-every", []string{"-sample-every=-1"}, "-sample-every"},
		{"sample-every without output", []string{"-sample-every", "100"}, "no output path"},
		{"timeseries without sample-every", []string{"-timeseries-out", "ts-%.csv"}, "-sample-every"},
		// The default policy list has two cells, so a literal path
		// cannot name both artifacts.
		{"multi-cell trace without placeholder", []string{"-trace-out", "trace.json"}, "placeholder"},
		{"unwritable trace dir", []string{"-policies", "unopt", "-trace-out", "/nonexistent-telemetry-dir/t.json"}, "not writable"},
		{"zero scale", []string{"-scale", "0"}, "-scale must be positive"},
		{"negative scale", []string{"-scale=-4"}, "-scale must be positive"},
		{"chunk without chunked sched", []string{"-chunk", "16"}, "-chunk only applies to -sched chunked"},
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

// tiny is a seconds-fast single-policy scenario.
var tiny = []string{"-streams", "2", "-scale", "64", "-policies", "unopt", "-tokmin", "2", "-tokmax", "2"}

// TestRunTelemetryOutputs: a well-formed telemetry flag set passes
// validation and a tiny run writes all three artifacts — non-empty,
// with the expected leading bytes.
func TestRunTelemetryOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serve grid")
	}
	dir := t.TempDir()
	artifacts := map[string]string{
		dir + "/trace.json":   `{"traceEvents":`,
		dir + "/events.jsonl": `{"kind":`,
		dir + "/ts.csv":       "cycle,node,",
	}
	args := append(tiny, "-trace-out", dir+"/trace.json", "-events-out", dir+"/events.jsonl",
		"-timeseries-out", dir+"/ts.csv", "-sample-every", "1000")
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("telemetry run failed: %v", err)
	}
	for path, prefix := range artifacts {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		if !strings.HasPrefix(string(b), prefix) {
			t.Errorf("%s starts %q, want prefix %q", path, b[:min(len(b), 40)], prefix)
		}
	}
}

// TestRunDefaultSLOZeroIsDisabled: the unset zero defaults must NOT
// trip the explicit-zero rejection — only zeroes passed explicitly are
// contradictions. The defaults run a real (tiny) grid to prove the
// zero SLO is treated as disabled, not invalid.
func TestRunDefaultSLOZeroIsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serve grid")
	}
	if err := run(tiny, io.Discard); err != nil {
		t.Fatalf("default zero SLO rejected: %v", err)
	}
}

// TestRunJSON decodes the -json document: every cell names its policy
// in axes and carries the one-node counters list, and goodput (with
// the SLO beside it) appears only when an SLO deadline is set.
func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serve grid")
	}
	for _, slo := range []bool{false, true} {
		args := append(tiny, "-json", "-policies", "unopt,dynmg")
		if slo {
			args = append(args, "-slo-ttft", "200000")
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		var doc cli.Doc
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Cells) != 2 || doc.Requests != 2 || doc.Scale != 64 || (doc.SLO != nil) != slo {
			t.Fatalf("slo=%v: document %+v", slo, doc)
		}
		for i, c := range doc.Cells {
			if c.Axes["policy"] != []string{"unopt", "dynmg"}[i] || len(c.Counters) != 1 || (c.Goodput != nil) != slo {
				t.Errorf("slo=%v: cell %d: axes %v, %d counters, goodput %v", slo, i, c.Axes, len(c.Counters), c.Goodput)
			}
		}
	}
}
