package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// swallowStdout diverts the process stdout to the null device so a
// successful run's report does not pollute the test output; the
// returned func restores it.
func swallowStdout(t *testing.T) func() {
	t.Helper()
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	return func() {
		os.Stdout = old
		null.Close()
	}
}

// defaultOpts mirrors the flag defaults in main so each case can
// perturb exactly one knob.
func defaultOpts() cliOpts {
	return cliOpts{
		streams: 8, batch: 4, model: "70b",
		tokmin: 4, tokmax: 8, rate: 30000,
		seed: 1, scale: 8,
		sched: "decode-only", chunk: 32,
		arrival: "poisson", preempt: "off",
		policies: "unopt,dynmg+BMA", stepcache: "on",
	}
}

// TestRunValidation: every malformed flag combination is rejected by
// run with a flag-level message before any simulation starts.
func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*cliOpts)
		want string
	}{
		{"zero streams", func(o *cliOpts) { o.streams = 0 }, "-streams"},
		{"zero batch", func(o *cliOpts) { o.batch = 0 }, "-batch"},
		{"inverted decode range", func(o *cliOpts) { o.tokmin = 8; o.tokmax = 4 }, "-tokmin"},
		{"zero tokmin", func(o *cliOpts) { o.tokmin = 0 }, "-tokmin"},
		{"negative rate", func(o *cliOpts) { o.rate = -1 }, "-rate"},
		{"NaN rate", func(o *cliOpts) { o.rate = math.NaN() }, "-rate"},
		{"negative kvcap", func(o *cliOpts) { o.kvcap = -1 }, "-kvcap"},
		{"bad model", func(o *cliOpts) { o.model = "13b" }, "model mix"},
		{"bad sched", func(o *cliOpts) { o.sched = "fifo" }, "scheduler"},
		{"bad stepcache", func(o *cliOpts) { o.stepcache = "maybe" }, "step-cache"},
		{"bad arrival spec", func(o *cliOpts) { o.arrival = "burst:100:0.5" }, "burst"},
		{"arrival duty out of range", func(o *cliOpts) { o.arrival = "burst:100:2:4" }, "duty"},
		{"bad preempt policy", func(o *cliOpts) { o.preempt = "oldest" }, "preempt"},
		{"preempt without kvcap", func(o *cliOpts) { o.sched = "chunked"; o.preempt = "newest" }, "KV"},
		{"preempt without prefill sched", func(o *cliOpts) { o.kvcap = 256; o.preempt = "newest" }, "preempt"},
		{"negative slo-ttft", func(o *cliOpts) { o.sloTTFT = -5 }, "-slo-ttft"},
		{"explicit zero slo-ttft", func(o *cliOpts) { o.sloTTFTSet = true }, "-slo-ttft"},
		{"negative slo-tbt", func(o *cliOpts) { o.sloTBT = -0.5 }, "-slo-tbt"},
		{"explicit zero slo-tbt", func(o *cliOpts) { o.sloTBTSet = true }, "-slo-tbt"},
		{"empty policy list", func(o *cliOpts) { o.policies = " , " }, "policy"},
		{"bad policy", func(o *cliOpts) { o.policies = "unopt,bogus" }, "bogus"},
		{"negative sample-every", func(o *cliOpts) { o.sampleEvery = -1 }, "-sample-every"},
		{"sample-every without output", func(o *cliOpts) { o.sampleEvery = 100 }, "no output path"},
		{"timeseries without sample-every", func(o *cliOpts) { o.timeseriesOut = "ts-%.csv" }, "-sample-every"},
		// The default policy list has two cells, so a literal path
		// cannot name both artifacts.
		{"multi-cell trace without placeholder", func(o *cliOpts) { o.traceOut = "trace.json" }, "placeholder"},
		{"unwritable trace dir", func(o *cliOpts) {
			o.policies = "unopt"
			o.traceOut = "/nonexistent-telemetry-dir/t.json"
		}, "not writable"},
	}
	for _, c := range cases {
		o := defaultOpts()
		c.mut(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunTelemetryOutputs: a well-formed telemetry flag set passes
// validation and a tiny run writes all three artifacts — non-empty,
// with the expected leading bytes.
func TestRunTelemetryOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serve grid")
	}
	dir := t.TempDir()
	o := defaultOpts()
	o.streams = 2
	o.scale = 64
	o.policies = "unopt"
	o.tokmin, o.tokmax = 2, 2
	o.traceOut = dir + "/trace.json"
	o.eventsOut = dir + "/events.jsonl"
	o.timeseriesOut = dir + "/ts.csv"
	o.sampleEvery = 1000
	old := swallowStdout(t)
	err := run(o)
	old()
	if err != nil {
		t.Fatalf("telemetry run failed: %v", err)
	}
	for path, prefix := range map[string]string{
		o.traceOut:      `{"traceEvents":`,
		o.eventsOut:     `{"kind":`,
		o.timeseriesOut: "cycle,node,",
	} {
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
// trip the explicit-zero rejection — only flag.Visit-recorded zeroes
// are contradictions. The default opts run a real (tiny) grid to
// prove the zero SLO is treated as disabled, not invalid.
func TestRunDefaultSLOZeroIsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full serve grid")
	}
	o := defaultOpts()
	o.streams = 2
	o.scale = 64
	o.policies = "unopt"
	o.tokmin, o.tokmax = 2, 2
	// Divert the table from the test's stdout.
	old := swallowStdout(t)
	err := run(o)
	old()
	if err != nil {
		t.Fatalf("default zero SLO rejected: %v", err)
	}
}
