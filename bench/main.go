// Command bench is the repository's benchmark. It times the paper's two
// cache regimes (Fig. 9 cache capacity, Fig. 7 MSHR throughput) and the
// serving-fleet step path, cold in a fresh child process and warm in the
// same child, checks every output against committed fingerprints, and,
// in a separate traced run, splits the cost across the simulator's
// layers with spans recorded around calls into each layer.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source:
//
//	bash bench/run.sh                          # all workloads, 5 samples each
//	bash bench/run.sh -workload fleet-prefix -seconds 20 -seed 3
//	bash bench/run.sh -trace spans.json        # per-layer metrics
//	bash bench/run.sh -out new.json            # also write every sample
//	bash bench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics whenever one workload is
// selected or -trace is given. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// e2eMetric is one metric of the untraced run with its unit. The bounds
// of the end-to-end ones live in BENCHMARK.json.
type e2eMetric struct {
	name, unit string
}

var e2eMetrics = []e2eMetric{
	{"wall_rel", "x"},
	{"warm_wall_rel", "x"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs", "count"},
}

// rawMetrics are printed, and written by -out, beside the end-to-end
// metrics: the wall times the relative metrics divide, and the probe.
var rawMetrics = []e2eMetric{
	{"wall_s", "s"},
	{"warm_wall_s", "s"},
	{"probe_s", "s"},
}

// Set-up takes about a millisecond, so its median needs far more
// samples than one per child: setupProbes set-up-only children run
// before each full child, and more at the end until a workload has
// minSetupSamples.
const (
	setupProbes     = 10
	minSetupSamples = 100
)

// traceFlag is -trace: "0" or absent is off, "1" writes spans to the
// default path, anything else is the span file path.
type traceFlag struct{ path string }

const defaultSpanPath = ".bench_build/spans.json"

func (t *traceFlag) String() string { return t.path }
func (t *traceFlag) Set(v string) error {
	switch v {
	case "0", "":
		t.path = ""
	case "1":
		t.path = defaultSpanPath
	default:
		t.path = v
	}
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Uint64("seed", 0, "seed of the fleet workloads' arrival order; 0 is the fingerprinted default")
		seconds      = flag.Int("seconds", 0, "sample each workload for this many seconds instead of -samples times")
		samples      = flag.Int("samples", 5, "children per workload when -seconds is 0")
		out          = flag.String("out", "", "write every sample as JSON to this file")
		compareMode  = flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
		child        = flag.Bool("child", false, "internal: run one sample and print its result")
		setupOnly    = flag.Bool("setup-only", false, "internal: child stops after set-up")
		warm         = flag.Int("warm", -1, "internal: child's warm repeats (-1: the workload's default)")
		trace        traceFlag
	)
	flag.Var(&trace, "trace", "run the per-layer suite and write its spans: 1 (to "+defaultSpanPath+") or a file path")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *samples, *out, *compareMode, *child, *setupOnly, *warm, trace.path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed uint64, seconds, samples int, out string, compareMode, child, setupOnly bool, warm int, tracePath string) error {
	if compareMode {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	ws := workloads
	if workloadName != "" {
		w, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		ws = []benchWorkload{w}
	}
	if child {
		if len(ws) != 1 {
			return fmt.Errorf("-child needs -workload")
		}
		return json.NewEncoder(os.Stdout).Encode(runChild(ws[0], seed, warm, setupOnly))
	}
	if tracePath != "" {
		return runTraced(seed, tracePath)
	}
	if seconds <= 0 && samples <= 0 {
		return fmt.Errorf("need -seconds > 0 or -samples > 0")
	}
	rep, counts := measure(ws, seed, seconds, samples)
	for _, w := range ws {
		printWorkload(os.Stdout, w.name, rep.Workloads[w.name], counts[w.name])
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	failed := 0
	for _, c := range counts {
		failed += c.failed
	}
	if len(ws) == 1 {
		c := counts[ws[0].name]
		metrics := make(map[string]summary)
		for _, m := range e2eMetrics {
			metrics[m.name] = rep.Workloads[ws[0].name][m.name]
		}
		if err := printResult(c, metrics); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// opCount is the operation tally of one workload.
type opCount struct{ attempted, failed int }

// measure samples every workload in child processes, one child at a
// time. Rounds are interleaved across workloads and the starting
// workload rotates each round, so a slow spell of the host spreads over
// all of them instead of landing on one.
func measure(ws []benchWorkload, seed uint64, seconds, samples int) (*report, map[string]*opCount) {
	values := make(map[string]map[string][]float64)
	counts := make(map[string]*opCount)
	children := make(map[string]int)
	lastCost := make(map[string]time.Duration)
	for _, w := range ws {
		values[w.name] = make(map[string][]float64)
		counts[w.name] = &opCount{}
	}
	account := func(w benchWorkload, s sample) bool {
		c := counts[w.name]
		c.attempted += s.Ops
		c.failed += s.Failed
		for _, e := range s.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
		}
		if s.Failed == 0 {
			values[w.name]["setup_s"] = append(values[w.name]["setup_s"], s.setupS)
		}
		return s.Failed == 0
	}
	deadline := time.Now().Add(time.Duration(seconds*len(ws)) * time.Second)
	for round := 0; ; round++ {
		progressed := false
		for k := range ws {
			w := ws[(round+k)%len(ws)]
			if seconds > 0 {
				if children[w.name] > 0 && time.Now().Add(lastCost[w.name]).After(deadline) {
					continue
				}
			} else if round >= samples {
				continue
			}
			progressed = true
			start := time.Now()
			v := values[w.name]
			for i := 0; i < setupProbes; i++ {
				account(w, spawnChild(w, seed, 0, true))
			}
			s := spawnChild(w, seed, -1, false)
			if account(w, s) {
				v["probe_s"] = append(v["probe_s"], s.ProbeS)
				v["wall_s"] = append(v["wall_s"], s.ColdS)
				if len(s.WarmS) > 0 {
					v["warm_wall_s"] = append(v["warm_wall_s"], median(s.WarmS))
				}
				v["peak_rss_mb"] = append(v["peak_rss_mb"], s.rssMB)
				v["allocs"] = append(v["allocs"], float64(s.Allocs))
			}
			children[w.name]++
			lastCost[w.name] = time.Since(start)
		}
		if !progressed {
			break
		}
	}
	for _, w := range ws {
		for i := len(values[w.name]["setup_s"]); i < minSetupSamples; i++ {
			account(w, spawnChild(w, seed, 0, true))
		}
	}
	rep := &report{Seed: seed, Workloads: make(map[string]map[string]summary)}
	for _, w := range ws {
		relative(values[w.name])
		rep.Workloads[w.name] = make(map[string]summary)
		for _, m := range append(e2eMetrics, rawMetrics...) {
			rep.Workloads[w.name][m.name] = summarize(m.unit, values[w.name][m.name])
		}
	}
	return rep, counts
}

func printWorkload(w io.Writer, name string, ms map[string]summary, c *opCount) {
	fmt.Fprintf(w, "%s\n", name)
	fmt.Fprintf(w, "  %-28s %-8s %14s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "max", "n")
	for _, k := range orderedKeys(ms) {
		s := ms[k]
		fmt.Fprintf(w, "  %-28s %-8s %14.6g %14.6g %14.6g %14.6g %4d\n", k, s.Unit, s.Median, s.Q1, s.Q3, s.Max, s.N)
	}
	rate := 0.0
	if c.attempted > 0 {
		rate = float64(c.failed) / float64(c.attempted)
	}
	fmt.Fprintf(w, "  %-28s %-8s %14.6g   (%d of %d operations failed)\n", "error_rate", "share", rate, c.failed, c.attempted)
}

// orderedKeys lists end-to-end metrics in their declared order, then
// any other keys sorted.
func orderedKeys(ms map[string]summary) []string {
	var keys []string
	seen := make(map[string]bool)
	for _, m := range e2eMetrics {
		if _, ok := ms[m.name]; ok {
			keys = append(keys, m.name)
			seen[m.name] = true
		}
	}
	for _, k := range sortedKeys(ms) {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	return keys
}

// printResult prints the one-line result object: each metric's median
// with its unit.
func printResult(c *opCount, metrics map[string]summary) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vs := make(map[string]value, len(metrics))
	for k, s := range metrics {
		vs[k] = value{Value: s.Median, Unit: s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   c.failed == 0,
		"attempted": c.attempted,
		"failed":    c.failed,
		"metrics":   vs,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runCompare(oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	if n := compare(os.Stdout, old, cur, bounds); n > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", n)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
