package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
)

type validationCase struct {
	name string
	args []string
	want string
}

// expectRejected runs every case with base followed by the case's own
// arguments (a later flag overrides an earlier one) and checks that run
// rejects it with a message naming want.
func expectRejected(t *testing.T, base []string, cases []validationCase) {
	t.Helper()
	for _, c := range cases {
		err := run(append(append([]string(nil), base...), c.args...), io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunValidation: every malformed flag combination is rejected by
// run with a flag-level message before any simulation starts.
func TestRunValidation(t *testing.T) {
	expectRejected(t, nil, []validationCase{
		{"zero streams", []string{"-streams", "0"}, "-streams"},
		{"zero batch", []string{"-batch", "0"}, "-batch"},
		{"negative sessions", []string{"-sessions=-1"}, "-sessions"},
		{"inverted decode range", []string{"-tokmin", "8", "-tokmax", "4"}, "-tokmin"},
		{"negative rate", []string{"-rate=-1"}, "-rate"},
		{"NaN rate", []string{"-rate", "NaN"}, "-rate"},
		{"negative kvcap", []string{"-kvcap=-1"}, "-kvcap"},
		{"bad model", []string{"-model", "13b"}, "model mix"},
		{"bad sched", []string{"-sched", "fifo"}, "scheduler"},
		{"bad stepcache", []string{"-stepcache", "maybe"}, "step-cache"},
		{"bad nodes entry", []string{"-nodes", "1,x"}, "-nodes"},
		{"zero node count", []string{"-nodes", "0"}, "-nodes"},
		{"empty nodes list", []string{"-nodes", " , "}, "-nodes"},
		{"bad router", []string{"-routers", "random"}, "router"},
		{"empty routers list", []string{"-routers", " , "}, "-routers"},
		{"bad arrival spec", []string{"-arrival", "burst:100:0.5"}, "burst"},
		{"bad preempt policy", []string{"-preempt", "oldest"}, "preempt"},
		{"preempt without kvcap", []string{"-sched", "chunked", "-preempt", "newest"}, "KV"},
		{"bad shed spec", []string{"-shed", "400:3:500:sideways"}, "shed spec"},
		{"zero shed saturation", []string{"-shed", "0"}, "saturation"},
		{"negative slo-ttft", []string{"-slo-ttft=-5"}, "-slo-ttft"},
		{"explicit zero slo-ttft", []string{"-slo-ttft", "0"}, "-slo-ttft"},
		{"negative slo-tbt", []string{"-slo-tbt=-0.5"}, "-slo-tbt"},
		{"explicit zero slo-tbt", []string{"-slo-tbt", "0"}, "-slo-tbt"},
		{"bad cache policy", []string{"-policy", "bogus"}, "bogus"},
		{"bad faults spec", []string{"-faults", "crash:0"}, "fault spec"},
		{"faults detector without schedule", []string{"-faults", "detect:5000"}, "detector/recovery"},
		{"faults need single nodes", []string{"-faults", "crash:0:50000"}, "single -nodes"},
		{"faults vs fault grid", []string{"-nodes", "2", "-routers", "least-outstanding", "-faults", "crash:0:50000",
			"-fault-mtbfs", "100000", "-fault-mttrs", "50000"}, "pick one"},
		{"mtbfs without mttrs", []string{"-fault-mtbfs", "100000"}, "-fault-mttrs"},
		{"mttrs without mtbfs", []string{"-fault-mttrs", "50000"}, "-fault-mtbfs"},
		{"fault-detect outside grid mode", []string{"-fault-detect", "0"}, "-fault-detect"},
		{"fault-count outside grid mode", []string{"-fault-count", "3"}, "-fault-count"},
		{"negative sample-every", []string{"-sample-every=-1"}, "-sample-every"},
		{"sample-every without output", []string{"-sample-every", "100"}, "no output path"},
		{"timeseries without sample-every", []string{"-timeseries-out", "ts-%.csv"}, "-sample-every"},
		// The default 3 node counts × all routers sweep has many cells,
		// so a literal path cannot name every artifact.
		{"multi-cell trace without placeholder", []string{"-trace-out", "trace.json"}, "placeholder"},
		{"unwritable trace dir", []string{"-nodes", "1", "-routers", "round-robin",
			"-trace-out", "/nonexistent-telemetry-dir/t.json"}, "not writable"},
		{"zero scale", []string{"-scale", "0"}, "-scale must be positive"},
		{"negative scale", []string{"-scale=-4"}, "-scale must be positive"},
		{"chunk without chunked sched", []string{"-chunk", "16"}, "-chunk only applies to -sched chunked"},
	})
}

// TestRunOverloadGridModeValidation: the -rates mode has its own
// constraints — a well-formed rate list, exactly one node count and
// router, and at least one overload control to compare against the
// uncontrolled baseline.
func TestRunOverloadGridModeValidation(t *testing.T) {
	// A minimal well-formed overload-grid flag set; each case breaks one
	// piece of it.
	base := []string{"-rates", "1,2", "-nodes", "2", "-routers", "least-outstanding", "-shed", "60:3:20000"}
	expectRejected(t, base, []validationCase{
		{"bad rates entry", []string{"-rates", "1,x"}, "-rates"},
		{"zero rate", []string{"-rates", "1,0"}, "-rates"},
		{"multiple node counts", []string{"-nodes", "1,2"}, "single -nodes"},
		{"multiple routers", []string{"-routers", "p2c,affinity"}, "single -routers"},
		{"no overload control", []string{"-shed", "off"}, "-preempt and/or -shed"},
		// rates × combos > 1, so the overload grid needs the placeholder
		// too — validated after the combo ladder is built.
		{"trace without placeholder", []string{"-trace-out", "t.json"}, "placeholder"},
	})
}

// TestRunFaultGridModeValidation: the -fault-mtbfs/-fault-mttrs mode
// has its own constraints — well-formed positive finite axes, exactly
// one node count and router, and sane detector/count parameters.
func TestRunFaultGridModeValidation(t *testing.T) {
	// A minimal well-formed fault-grid flag set; each case breaks one
	// piece of it.
	base := []string{"-fault-mtbfs", "100000,400000", "-fault-mttrs", "50000", "-nodes", "2", "-routers", "least-outstanding"}
	expectRejected(t, base, []validationCase{
		{"bad mtbf entry", []string{"-fault-mtbfs", "100000,x"}, "-fault-mtbfs"},
		{"zero mtbf", []string{"-fault-mtbfs", "0"}, "-fault-mtbfs"},
		{"nan mttr", []string{"-fault-mttrs", "NaN"}, "-fault-mttrs"},
		{"infinite mttr", []string{"-fault-mttrs", "Inf"}, "-fault-mttrs"},
		{"multiple node counts", []string{"-nodes", "1,2"}, "single -nodes"},
		{"multiple routers", []string{"-routers", "p2c,affinity"}, "single -routers"},
		{"negative detect", []string{"-fault-detect=-1"}, "-fault-detect"},
		{"zero count", []string{"-fault-count", "0"}, "-fault-count"},
		{"composed with rates", []string{"-rates", "1,2", "-shed", "60"}, "-fault-mtbfs"},
		{"composed with prefix grid", []string{"-prefix-caches", "0,64", "-sched", "chunked"}, "-fault-mtbfs"},
		// mtbfs × mttrs × 2 recovery policies > 1 cell, so telemetry paths
		// need the placeholder here too.
		{"trace without placeholder", []string{"-trace-out", "t.json"}, "placeholder"},
	})
}

// TestParseFaultTimes: the fault-grid axis grammar rejects
// non-positive, non-finite and malformed entries.
func TestParseFaultTimes(t *testing.T) {
	got, err := cli.ParseList[float64]("-fault-mtbfs", " 100000, 2.5e5 ", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{100000, 2.5e5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"", " , ", "1,x", "0", "-2", "NaN", "Inf", "1e400"} {
		if _, err := cli.ParseList[float64]("-fault-mtbfs", bad, false); err == nil {
			t.Errorf("axis %q accepted", bad)
		}
	}
}

// TestParseRates: the multiplier grammar round-trips and rejects
// non-positive or malformed entries.
func TestParseRates(t *testing.T) {
	got, err := cli.ParseList[float64]("-rates", " 1, 2.5 ,8 ", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2.5, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"", " , ", "1,x", "0", "-2", "1,,0"} {
		if _, err := cli.ParseList[float64]("-rates", bad, false); err == nil {
			t.Errorf("rates %q accepted", bad)
		}
	}
}

// tiny is a seconds-fast fleet workload.
var tiny = []string{"-streams", "2", "-sessions", "1", "-scale", "64", "-tokmin", "2", "-tokmax", "2"}

// TestRunTelemetryOutputs: a well-formed telemetry flag set passes
// validation and a tiny 2-node fleet writes all three artifacts.
func TestRunTelemetryOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cluster grid")
	}
	dir := t.TempDir()
	artifacts := map[string]string{
		dir + "/trace.json":   `{"traceEvents":`,
		dir + "/events.jsonl": `{"kind":`,
		dir + "/ts.csv":       "cycle,node,",
	}
	args := append(tiny, "-nodes", "2", "-routers", "round-robin", "-trace-out", dir+"/trace.json",
		"-events-out", dir+"/events.jsonl", "-timeseries-out", dir+"/ts.csv", "-sample-every", "1000")
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
// contradictions. The defaults run a real (tiny) fleet to prove the
// zero SLO is treated as disabled, not invalid.
func TestRunDefaultSLOZeroIsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cluster grid")
	}
	if err := run(append(tiny, "-nodes", "1", "-routers", "round-robin"), io.Discard); err != nil {
		t.Fatalf("default zero SLO rejected: %v", err)
	}
}

// TestRunJSON decodes every mode's -json document: each cell carries
// its coordinate in axes and one counters block per node, goodput
// appears on every cell of the overload and fault grids and of an SLO
// run and on no other, and the SLO is recorded exactly when it does.
func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cluster grids")
	}
	modes := []struct {
		name    string
		args    []string
		cells   int
		goodput bool
	}{
		{"default", []string{"-nodes", "1,2", "-routers", "rr"}, 2, false},
		{"default with SLO", []string{"-nodes", "1,2", "-routers", "rr", "-slo-ttft", "600000"}, 2, true},
		{"overload grid", []string{"-rates", "1,2", "-nodes", "2", "-routers", "lot", "-shed", "60"}, 4, true},
		{"prefix grid", []string{"-prefix-caches", "0,64", "-nodes", "2", "-routers", "rr,pfx", "-sched", "chunked"}, 4, false},
		{"fault grid", []string{"-fault-mtbfs", "100000", "-fault-mttrs", "50000", "-nodes", "2", "-routers", "lot"}, 2, true},
	}
	for _, m := range modes {
		var out bytes.Buffer
		if err := run(append(append(tiny, "-json"), m.args...), &out); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		var doc cli.Doc
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(doc.Cells) != m.cells || doc.Requests != 2 || doc.Scale != 64 || (doc.SLO != nil) != m.goodput {
			t.Fatalf("%s: document %+v", m.name, doc)
		}
		for i, c := range doc.Cells {
			nodes, _ := c.Axes["nodes"].(float64)
			if c.Axes["policy"] != "dynmg+BMA" || c.Axes["router"] == nil || len(c.Counters) != int(nodes) ||
				(c.Goodput != nil) != m.goodput {
				t.Errorf("%s: cell %d: axes %v, %d counters, goodput %v", m.name, i, c.Axes, len(c.Counters), c.Goodput)
			}
		}
	}
}
