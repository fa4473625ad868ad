// Command serve runs serving scenarios: many concurrent decode
// requests under a continuous-batching scheduler, evaluated across
// the paper's throttle/arbiter policy matrix. This is the workload an
// inference server actually presents to the cache hierarchy — mixed
// sequence lengths, streams arriving and retiring, per-stream address
// spaces contending in the LLC and DRAM — and the serving metrics the
// figures do not report: aggregate tokens/kilocycle, token-latency
// percentiles and queueing delay.
//
//	serve                                  # stock 8-request scenario, unopt vs dynmg+BMA
//	serve -policies unopt,dynmg,dynmg+BMA  # wider policy matrix
//	serve -streams 16 -batch 8 -rate 15000 # heavier traffic
//	serve -model mix -av                   # mixed 70B/405B, Logit+AV per token
//	serve -sched chunked -chunk 32         # on-node chunked prefill before decode
//	serve -sched prefill-first -kvcap 4096 # monolithic prefill, bounded KV cache
//	serve -arrival burst:40000:0.25:6 -sched chunked -chunk 32 -kvcap 256 -preempt newest
//	serve -sessions 2 -session-depth 3 -sched chunked -prefix-cache 4096
//	serve -slo-ttft 200000 -slo-tbt 30000  # per-request deadlines, goodput report
//	serve -json                            # machine-readable metrics incl. TTFT
//	serve -dumptrace step0.trace           # write the first composed step trace
//
// Workload flags (-streams, -seqmin/-seqmax, -tokmin/-tokmax, -rate,
// -seed, -arrival) shape the fixed-seed request population and its
// arrival-rate shape (bursty, ramping, diurnal or trace-replayed
// modulation of the Poisson process); session flags (-sessions,
// -session-depth) group requests into multi-turn conversations whose
// follow-up turns extend the previous turn's context; scheduler flags
// (-sched, -chunk, -kvcap, -preempt, -prefix-cache) select the
// prefill/decode co-scheduling policy, the prefill chunk size, the
// KV-capacity admission bound, the recompute-on-preempt victim policy
// under KV pressure, and the session prefix-cache capacity that lets
// follow-up turns skip re-prefilling their shared context; SLO flags
// (-slo-ttft, -slo-tbt) set per-request deadlines and add
// goodput-under-SLO reports to the output;
// trace flags (-av, -dumptrace) control per-step trace composition;
// telemetry flags (-trace-out, -events-out, -timeseries-out,
// -sample-every) record the deterministic request-lifecycle event
// stream per policy cell as a Perfetto-loadable Chrome trace, a JSONL
// event log and a CSV gauge time series (with more than one policy the
// paths need a % cell placeholder);
// -hwprof attributes every step's hardware-counter delta to its
// phase (prefill, decode, recompute after preempt/redispatch), to the
// streams co-scheduled in the step and to -sample-every wall-clock
// buckets, classifies the node's bottleneck (memory-bound,
// compute-bound, stalled, idle) and prints the profile report after
// the table (or to -hwprof-out; hw counter tracks also flow into the
// telemetry exporters);
// -scale divides the prompt-length range and the L2 size together,
// preserving the working-set-to-cache ratio exactly like the figure
// harnesses; -stepcache selects the token-step fast path (on =
// signature memo + resettable simulator, nomemo = no memoized replay,
// off = the naive reference pipeline); -json switches the report from
// the aligned table to a JSON document of the full per-cell metrics
// (TTFT percentiles included) for downstream tooling, in the shape
// cmd/cluster writes too; -cpuprofile/-memprofile capture pprof
// profiles of the run. The flags shared with cmd/cluster and their
// validation live in internal/cli. Runs are
// deterministic for a fixed flag set (modulo the step-cache hit-rate
// diagnostics, which depend on process history).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/serving"
	"repro/internal/sim"
)

func main() { cli.Main("serve", run) }

// run runs the command on args and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	f := cli.New("serve", 8, 0, 30000)
	policies := f.String("policies", "unopt,dynmg+BMA", "comma-separated policy list, e.g. unopt,dyncta,dynmg,dynmg+BMA")
	dumptrace := f.String("dumptrace", "", "write the first step's composed multi-stream trace to this file")
	return f.Run(args, func() error {
		s, err := f.Setup()
		if err != nil {
			return err
		}
		scn, err := serving.NewScenario(s.Scenario)
		if err != nil {
			return err
		}
		var pols []experiments.Policy
		for _, label := range strings.Split(*policies, ",") {
			if label = strings.TrimSpace(label); label == "" {
				continue
			}
			p, err := experiments.ParsePolicy(label)
			if err != nil {
				return err
			}
			pols = append(pols, p)
		}
		if len(pols) == 0 {
			return fmt.Errorf("empty policy list")
		}
		if *dumptrace != "" {
			if err := writeFirstStep(scn, *s.Options.Base, *dumptrace); err != nil {
				return err
			}
		}
		grid, err := experiments.ServeGrid(scn, pols, s.Options)
		if err != nil {
			return err
		}
		var table strings.Builder
		table.WriteString(grid.Render())
		doc := s.Doc(s.SLO.Enabled())
		for i, p := range grid.Policies {
			doc.AddNode(cli.Axes{"policy": p.Label}, grid.Metrics[i])
			if s.SLO.Enabled() {
				fmt.Fprintf(&table, "\ngoodput under SLO [%s]\n%s", p.Label, serving.Goodput(grid.Metrics[i], s.SLO))
			}
		}
		// With no -hwprof-out the full per-cell profile reports follow the
		// table (the grid runner wrote them to files otherwise).
		if s.Options.HWProf.Enabled && s.Options.HWProfOut == "" {
			for i, p := range grid.Policies {
				if hw := grid.Metrics[i].HW; hw != nil {
					fmt.Fprintf(&table, "\n%s", hw.Render(p.Label))
				}
			}
		}
		if f.JSON {
			return doc.Write(stdout)
		}
		_, err = io.WriteString(stdout, table.String())
		return err
	})
}

// writeFirstStep composes the scenario's first token step (the batch
// admitted at the earliest non-empty boundary) and serialises its
// interleaved multi-stream trace for inspection with cmd/tracegen
// tooling.
func writeFirstStep(scn serving.Scenario, cfg sim.Config, path string) error {
	states, err := serving.FirstStep(cfg, scn)
	if err != nil {
		return err
	}
	tr, _, err := serving.ComposeStep(states, scn.IncludeAV, cfg.LineBytes)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: wrote %d-stream step trace (%d blocks) to %s\n",
		len(states), len(tr.Blocks), path)
	return nil
}
