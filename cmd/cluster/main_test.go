package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// defaultOpts mirrors the flag defaults in main so each case can
// perturb exactly one knob.
func defaultOpts() cliOpts {
	return cliOpts{
		streams: 16, sessions: 4, batch: 4,
		nodes: "1,2,4", routers: "all",
		policy: "dynmg+BMA", model: "70b",
		tokmin: 4, tokmax: 8, rate: 15000,
		seed: 1, scale: 8,
		sched: "decode-only", chunk: 32,
		arrival: "poisson", preempt: "off", shed: "off",
		faults: "off", faultCount: 3,
		stepcache: "on",
	}
}

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
		{"negative sessions", func(o *cliOpts) { o.sessions = -1 }, "-sessions"},
		{"inverted decode range", func(o *cliOpts) { o.tokmin = 8; o.tokmax = 4 }, "-tokmin"},
		{"negative rate", func(o *cliOpts) { o.rate = -1 }, "-rate"},
		{"NaN rate", func(o *cliOpts) { o.rate = math.NaN() }, "-rate"},
		{"negative kvcap", func(o *cliOpts) { o.kvcap = -1 }, "-kvcap"},
		{"bad model", func(o *cliOpts) { o.model = "13b" }, "model mix"},
		{"bad sched", func(o *cliOpts) { o.sched = "fifo" }, "scheduler"},
		{"bad stepcache", func(o *cliOpts) { o.stepcache = "maybe" }, "step-cache"},
		{"bad nodes entry", func(o *cliOpts) { o.nodes = "1,x" }, "-nodes"},
		{"zero node count", func(o *cliOpts) { o.nodes = "0" }, "-nodes"},
		{"empty nodes list", func(o *cliOpts) { o.nodes = " , " }, "-nodes"},
		{"bad router", func(o *cliOpts) { o.routers = "random" }, "router"},
		{"empty routers list", func(o *cliOpts) { o.routers = " , " }, "-routers"},
		{"bad arrival spec", func(o *cliOpts) { o.arrival = "burst:100:0.5" }, "burst"},
		{"bad preempt policy", func(o *cliOpts) { o.preempt = "oldest" }, "preempt"},
		{"preempt without kvcap", func(o *cliOpts) { o.sched = "chunked"; o.preempt = "newest" }, "KV"},
		{"bad shed spec", func(o *cliOpts) { o.shed = "400:3:500:sideways" }, "shed spec"},
		{"zero shed saturation", func(o *cliOpts) { o.shed = "0" }, "saturation"},
		{"negative slo-ttft", func(o *cliOpts) { o.sloTTFT = -5 }, "-slo-ttft"},
		{"explicit zero slo-ttft", func(o *cliOpts) { o.sloTTFTSet = true }, "-slo-ttft"},
		{"negative slo-tbt", func(o *cliOpts) { o.sloTBT = -0.5 }, "-slo-tbt"},
		{"explicit zero slo-tbt", func(o *cliOpts) { o.sloTBTSet = true }, "-slo-tbt"},
		{"bad cache policy", func(o *cliOpts) { o.policy = "bogus" }, "bogus"},
		{"bad faults spec", func(o *cliOpts) { o.faults = "crash:0" }, "fault spec"},
		{"faults detector without schedule", func(o *cliOpts) { o.faults = "detect:5000" }, "detector/recovery"},
		{"faults need single nodes", func(o *cliOpts) { o.faults = "crash:0:50000" }, "single -nodes"},
		{"faults vs fault grid", func(o *cliOpts) {
			o.nodes = "2"
			o.routers = "least-outstanding"
			o.faults = "crash:0:50000"
			o.faultMTBFs = "100000"
			o.faultMTTRs = "50000"
		}, "pick one"},
		{"mtbfs without mttrs", func(o *cliOpts) { o.faultMTBFs = "100000" }, "-fault-mttrs"},
		{"mttrs without mtbfs", func(o *cliOpts) { o.faultMTTRs = "50000" }, "-fault-mtbfs"},
		{"fault-detect outside grid mode", func(o *cliOpts) { o.faultDetectSet = true }, "-fault-detect"},
		{"fault-count outside grid mode", func(o *cliOpts) { o.faultCountSet = true }, "-fault-count"},
		{"negative sample-every", func(o *cliOpts) { o.sampleEvery = -1 }, "-sample-every"},
		{"sample-every without output", func(o *cliOpts) { o.sampleEvery = 100 }, "no output path"},
		{"timeseries without sample-every", func(o *cliOpts) { o.timeseriesOut = "ts-%.csv" }, "-sample-every"},
		// The default 3 node counts × all routers sweep has many cells,
		// so a literal path cannot name every artifact.
		{"multi-cell trace without placeholder", func(o *cliOpts) { o.traceOut = "trace.json" }, "placeholder"},
		{"unwritable trace dir", func(o *cliOpts) {
			o.nodes = "1"
			o.routers = "round-robin"
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

// TestRunOverloadGridModeValidation: the -rates mode has its own
// constraints — a well-formed rate list, exactly one node count and
// router, and at least one overload control to compare against the
// uncontrolled baseline.
func TestRunOverloadGridModeValidation(t *testing.T) {
	grid := func(mut func(*cliOpts)) error {
		o := defaultOpts()
		// A minimal well-formed overload-grid flag set; each case breaks
		// one piece of it.
		o.rates = "1,2"
		o.nodes = "2"
		o.routers = "least-outstanding"
		o.shed = "60:3:20000"
		mut(&o)
		return run(o)
	}
	cases := []struct {
		name string
		mut  func(*cliOpts)
		want string
	}{
		{"bad rates entry", func(o *cliOpts) { o.rates = "1,x" }, "-rates"},
		{"zero rate", func(o *cliOpts) { o.rates = "1,0" }, "-rates"},
		{"multiple node counts", func(o *cliOpts) { o.nodes = "1,2" }, "single -nodes"},
		{"multiple routers", func(o *cliOpts) { o.routers = "p2c,affinity" }, "single -routers"},
		{"no overload control", func(o *cliOpts) { o.shed = "off" }, "-preempt and/or -shed"},
		// rates × combos > 1, so the overload grid needs the placeholder
		// too — validated after the combo ladder is built.
		{"trace without placeholder", func(o *cliOpts) { o.traceOut = "t.json" }, "placeholder"},
	}
	for _, c := range cases {
		err := grid(c.mut)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRunFaultGridModeValidation: the -fault-mtbfs/-fault-mttrs mode
// has its own constraints — well-formed positive finite axes, exactly
// one node count and router, and sane detector/count parameters.
func TestRunFaultGridModeValidation(t *testing.T) {
	grid := func(mut func(*cliOpts)) error {
		o := defaultOpts()
		// A minimal well-formed fault-grid flag set; each case breaks one
		// piece of it.
		o.faultMTBFs = "100000,400000"
		o.faultMTTRs = "50000"
		o.nodes = "2"
		o.routers = "least-outstanding"
		mut(&o)
		return run(o)
	}
	cases := []struct {
		name string
		mut  func(*cliOpts)
		want string
	}{
		{"bad mtbf entry", func(o *cliOpts) { o.faultMTBFs = "100000,x" }, "-fault-mtbfs"},
		{"zero mtbf", func(o *cliOpts) { o.faultMTBFs = "0" }, "-fault-mtbfs"},
		{"nan mttr", func(o *cliOpts) { o.faultMTTRs = "NaN" }, "-fault-mttrs"},
		{"infinite mttr", func(o *cliOpts) { o.faultMTTRs = "Inf" }, "-fault-mttrs"},
		{"multiple node counts", func(o *cliOpts) { o.nodes = "1,2" }, "single -nodes"},
		{"multiple routers", func(o *cliOpts) { o.routers = "p2c,affinity" }, "single -routers"},
		{"negative detect", func(o *cliOpts) { o.faultDetect = -1; o.faultDetectSet = true }, "-fault-detect"},
		{"zero count", func(o *cliOpts) { o.faultCount = 0; o.faultCountSet = true }, "-fault-count"},
		{"composed with rates", func(o *cliOpts) { o.rates = "1,2"; o.shed = "60" }, "-fault-mtbfs"},
		{"composed with prefix grid", func(o *cliOpts) { o.prefixCaches = "0,64"; o.sched = "chunked" }, "-fault-mtbfs"},
		// mtbfs × mttrs × 2 recovery policies > 1 cell, so telemetry paths
		// need the placeholder here too.
		{"trace without placeholder", func(o *cliOpts) { o.traceOut = "t.json" }, "placeholder"},
	}
	for _, c := range cases {
		err := grid(c.mut)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestParseFaultTimes: the fault-grid axis grammar rejects
// non-positive, non-finite and malformed entries.
func TestParseFaultTimes(t *testing.T) {
	got, err := parseFaultTimes("-fault-mtbfs", " 100000, 2.5e5 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{100000, 2.5e5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"", " , ", "1,x", "0", "-2", "NaN", "Inf", "1e400"} {
		if _, err := parseFaultTimes("-fault-mtbfs", bad); err == nil {
			t.Errorf("axis %q accepted", bad)
		}
	}
}

// TestParseRates: the multiplier grammar round-trips and rejects
// non-positive or malformed entries.
func TestParseRates(t *testing.T) {
	got, err := parseRates(" 1, 2.5 ,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2.5, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"", " , ", "1,x", "0", "-2", "1,,0"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("rates %q accepted", bad)
		}
	}
}

// TestRunTelemetryOutputs: a well-formed telemetry flag set passes
// validation and a tiny 2-node fleet writes all three artifacts.
func TestRunTelemetryOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cluster grid")
	}
	dir := t.TempDir()
	o := defaultOpts()
	o.streams = 2
	o.sessions = 1
	o.scale = 64
	o.nodes = "2"
	o.routers = "round-robin"
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
// are contradictions. The default opts run a real (tiny) fleet to
// prove the zero SLO is treated as disabled, not invalid.
func TestRunDefaultSLOZeroIsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full cluster grid")
	}
	o := defaultOpts()
	o.streams = 2
	o.sessions = 1
	o.scale = 64
	o.nodes = "1"
	o.routers = "round-robin"
	o.tokmin, o.tokmax = 2, 2
	// Divert the table from the test's stdout.
	old := swallowStdout(t)
	err := run(o)
	old()
	if err != nil {
		t.Fatalf("default zero SLO rejected: %v", err)
	}
}
