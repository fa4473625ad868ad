package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/workload"
)

// TestParseList: the one numeric list grammar round-trips and rejects
// malformed, out-of-range, non-finite and empty lists for every flag.
func TestParseList(t *testing.T) {
	floats := func(name string, zeroOK bool) func(string) (any, error) {
		return func(s string) (any, error) { return ParseList[float64](name, s, zeroOK) }
	}
	ints := func(name string, zeroOK bool) func(string) (any, error) {
		return func(s string) (any, error) { return ParseList[int](name, s, zeroOK) }
	}
	int64s := func(name string, zeroOK bool) func(string) (any, error) {
		return func(s string) (any, error) { return ParseList[int64](name, s, zeroOK) }
	}
	// The cluster command's float axes (-rates, -fault-mtbfs) have their
	// own tests next to the flags; these rows cover each element type.
	rates := floats("-rates", false)
	nodes, caches := ints("-nodes", false), int64s("-prefix-caches", true)
	cases := []struct {
		parse func(string) (any, error)
		in    string
		want  any // nil: rejected
	}{
		{rates, " 1, 2.5 ,8 ", []float64{1, 2.5, 8}},
		{rates, "1,,0", nil},
		{rates, "Inf", nil},
		{rates, "1e400", nil},
		{nodes, "1, 2,4", []int{1, 2, 4}},
		{nodes, "0", nil},
		{nodes, "1.5", nil},
		{caches, "0,4096", []int64{0, 4096}},
		{caches, "-1", nil},
		{caches, " ", nil},
	}
	for _, c := range cases {
		got, err := c.parse(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("list %q accepted as %v", c.in, got)
		case c.want != nil && err != nil:
			t.Errorf("list %q: %v", c.in, err)
		case c.want != nil && !reflect.DeepEqual(got, c.want):
			t.Errorf("list %q parsed %v, want %v", c.in, got, c.want)
		}
	}
	for in, want := range map[string]string{
		"1,x":  `invalid -nodes entry "x"`,
		"0":    "-nodes entries must be positive, got 0",
		" , ":  "empty -nodes list",
		"1,-3": "-nodes entries must be positive, got -3",
	} {
		if _, err := ParseList[int]("-nodes", in, false); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-nodes %q: error %v, want %q", in, err, want)
		}
	}
	if _, err := ParseList[int64]("-prefix-caches", "-1", true); err == nil ||
		err.Error() != "-prefix-caches entries must be non-negative, got -1" {
		t.Errorf("-prefix-caches -1: %v", err)
	}
	if _, err := ParseList[float64]("-rates", "NaN", false); err == nil ||
		err.Error() != "-rates entries must be positive and finite, got NaN" {
		t.Errorf("-rates NaN: %v", err)
	}
}

// TestCommandRun: -h and parse errors come back as errors Main maps to
// the flag package's exit codes, explicit flags are recorded, and the
// profiles are written around the body.
func TestCommandRun(t *testing.T) {
	c := NewCommand("test")
	c.SetOutput(io.Discard)
	c.Int("n", 1, "")
	if err := c.Run([]string{"-h"}, nil); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v", err)
	}
	if err := c.Run([]string{"-nosuch"}, nil); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: %v", err)
	}

	dir := t.TempDir()
	c = NewCommand("test").Profiled()
	c.Int("n", 1, "")
	c.Int("m", 1, "")
	want := errors.New("body failed")
	ran := false
	err := c.Run([]string{"-n", "1", "-cpuprofile", filepath.Join(dir, "cpu"), "-memprofile", filepath.Join(dir, "mem")},
		func() error { ran = true; return want })
	if !ran || err != want {
		t.Fatalf("body ran %v, error %v", ran, err)
	}
	if !c.Passed("n") || c.Passed("m") {
		t.Errorf("passed n=%v m=%v, want true false", c.Passed("n"), c.Passed("m"))
	}
	for _, p := range []string{"cpu", "mem"} {
		if fi, err := os.Stat(filepath.Join(dir, p)); err != nil || fi.Size() == 0 {
			t.Errorf("%s profile: %v", p, err)
		}
	}
	if err := NewCommand("test").Profiled().Run([]string{"-cpuprofile", filepath.Join(dir, "no", "cpu")},
		func() error { t.Error("body ran without its CPU profile"); return nil }); err == nil {
		t.Error("unwritable CPU profile accepted")
	}
}

// TestSetup: the shared flags resolve to the workload, SLO and options
// the commands run, with the scale-derived prompt-length defaults
// clamped to the mapping floor.
func TestSetup(t *testing.T) {
	setup := func(args ...string) Setup {
		t.Helper()
		f := New("test", 8, 0, 30000)
		var s Setup
		if err := f.Run(args, func() (err error) { s, err = f.Setup(); return err }); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := setup()
	sc := s.Scenario
	if sc.Name != "70b/8req/seed1" || sc.NumRequests != 8 || sc.MeanInterArrival != 30000 ||
		sc.MinPromptLen != 64 || sc.MaxPromptLen != 256 || !reflect.DeepEqual(sc.Models, []workload.ModelConfig{workload.Llama3_70B}) ||
		s.SLO.Enabled() || s.Options.Scale != 8 || s.Options.Log != nil {
		t.Errorf("defaults resolved to %+v, SLO %+v, scale %d", sc, s.SLO, s.Options.Scale)
	}
	s = setup("-scale", "64", "-model", "mix", "-sched", "chunked", "-chunk", "16", "-slo-ttft", "5", "-v",
		"-sessions", "2", "-hwprof", "-sample-every", "100")
	sc = s.Scenario
	if sc.MinPromptLen != 16 || sc.MaxPromptLen != 32 || len(sc.Models) != 2 || sc.Sched.ChunkTokens != 16 ||
		sc.NumSessions != 2 || s.SLO.TTFTCycles != 5 || s.Options.Log == nil ||
		!s.Options.HWProf.Enabled || !s.Options.Trace.AllowBareSampling || s.Options.HWProf.SampleEvery != 100 {
		t.Errorf("flags resolved to %+v, SLO %+v, options %+v", sc, s.SLO, s.Options)
	}
	if s := setup("-model", "llama3-405b"); !reflect.DeepEqual(s.Scenario.Models, []workload.ModelConfig{workload.Llama3_405B}) {
		t.Errorf("-model llama3-405b resolved to %v", s.Scenario.Models)
	}
}

// TestDoc: every cell carries one counters block per node, goodput and
// the SLO appear together, and the document decodes to itself.
func TestDoc(t *testing.T) {
	s := Setup{Scenario: serving.ScenarioConfig{Name: "w", NumRequests: 3,
		Sched: serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 32}},
		SLO: serving.SLO{TTFTCycles: 7}}
	s.Options.Scale = 4
	for _, goodput := range []bool{false, true} {
		d := s.Doc(goodput)
		d.AddNode(Axes{"policy": "unopt"}, &serving.Metrics{})
		d.AddFleet(Axes{"nodes": 2}, &cluster.Metrics{PerNode: []*serving.Metrics{{}, {}}})
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		var back Doc
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if back.Workload != "w" || back.Requests != 3 || back.Scale != 4 || back.Scheduler != "chunked/32" ||
			(back.SLO != nil) != goodput || len(back.Cells) != 2 {
			t.Fatalf("goodput=%v: decoded %+v", goodput, back)
		}
		for i, c := range back.Cells {
			if len(c.Counters) != i+1 || (c.Goodput != nil) != goodput || len(c.Axes) != 1 {
				t.Errorf("goodput=%v: cell %d = %+v", goodput, i, c)
			}
		}
	}
}

// TestSchedLabel pins the document's scheduler names.
func TestSchedLabel(t *testing.T) {
	for _, c := range []struct {
		s    serving.SchedulerConfig
		want string
	}{
		{serving.SchedulerConfig{}, "decode-only"},
		{serving.SchedulerConfig{KVCapTokens: 2048}, "decode-only/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedPrefillFirst, KVCapTokens: 2048}, "prefill-first/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 2048}, "chunked/16/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 64}, "chunked/64"},
	} {
		if got := schedLabel(c.s); got != c.want {
			t.Errorf("schedLabel(%+v) = %q, want %q", c.s, got, c.want)
		}
	}
}
