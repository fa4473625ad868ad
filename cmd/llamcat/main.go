// Command llamcat runs the paper's experiments and ad-hoc simulations.
//
// Reproduce a figure (scaled 8x down by default):
//
//	llamcat -exp fig7a
//	llamcat -exp fig9b -scale 4
//	llamcat -exp all -scale 8
//
// Run a single simulation cell:
//
//	llamcat -model 70b -seq 8192 -policy dynmg+BMA -l2 16MiB
//
// Scale divides sequence lengths and cache sizes together, preserving
// every working-set-to-cache ratio of the paper; -scale 1 is paper
// scale (slow: minutes per figure).
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() { cli.Main("llamcat", run) }

// run runs the command on args and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	c := cli.NewCommand("llamcat")
	exp := c.String("exp", "", "experiment id: fig7a..fig7f, fig8, fig9a, fig9b, hwcost, all")
	scale := c.Int("scale", 8, "divide sequence lengths and cache sizes by this factor (1 = paper scale)")
	verbose := c.Bool("v", false, "log each simulation cell")
	model := c.String("model", "70b", "model for single runs: 70b or 405b")
	seq := c.Int("seq", 2048, "sequence length for single runs")
	policy := c.String("policy", "dynmg+BMA", "policy for single runs, e.g. unopt, dyncta, cobrra, dynmg+BMA")
	l2 := c.String("l2", "", "override L2 size for single runs, e.g. 2MiB")
	return c.Run(args, func() error {
		if *scale < 1 {
			return fmt.Errorf("-scale must be positive, got %d", *scale)
		}
		if *exp != "" {
			return runExperiments(*exp, *scale, *verbose, stdout)
		}
		return runSingle(*model, *seq, *policy, *l2, stdout)
	})
}

func parseSize(s string) (int, error) {
	s = strings.TrimSpace(s)
	mult := 1
	switch {
	case strings.HasSuffix(s, "MiB"), strings.HasSuffix(s, "MB"):
		mult = 1 << 20
		s = strings.TrimSuffix(strings.TrimSuffix(s, "MiB"), "MB")
	case strings.HasSuffix(s, "KiB"), strings.HasSuffix(s, "KB"):
		mult = 1 << 10
		s = strings.TrimSuffix(strings.TrimSuffix(s, "KiB"), "KB")
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %v", s, err)
	}
	return n * mult, nil
}

func runSingle(model string, seq int, policy, l2 string, stdout io.Writer) error {
	m, err := workload.ParseModel(model)
	if err != nil {
		return err
	}
	pol, err := llamcat.ParsePolicy(policy)
	if err != nil {
		return err
	}
	cfg := llamcat.DefaultConfig()
	if l2 != "" {
		size, err := parseSize(l2)
		if err != nil {
			return err
		}
		cfg.L2SizeBytes = size
	}
	op := llamcat.Logit(m, seq)
	res, err := llamcat.Run(cfg, op, pol)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload  %s\npolicy    %s+%v\nL2        %d MiB\nblocks    %d\n\n%s",
		op.Name(), pol.Throttle, pol.Arbiter, cfg.L2SizeBytes>>20, res.TraceBlocks, res.Metrics)
	return nil
}

func runExperiments(id string, scale int, verbose bool, stdout io.Writer) error {
	opts := experiments.Options{Scale: scale}
	if verbose {
		opts.Log = os.Stderr
	}
	ids := []string{id}
	if id == "all" {
		ids = []string{"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig8", "fig9a", "fig9b", "hwcost"}
	}
	// The Fig. 7 panels of a model share their cells, and Fig. 8 is Fig.
	// 7(a)'s 8K column: every run after a model's first replays its cells
	// from the process-wide step memo.
	for _, id := range ids {
		switch id {
		case "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f":
			model := workload.Llama3_70B
			if id >= "fig7d" { // panels d–f are Llama3-405B's
				model = workload.Llama3_405B
			}
			r, err := experiments.RunFig7(model, opts)
			if err != nil {
				return err
			}
			printFig7Panel(stdout, id, r)
		case "fig8":
			rows, err := experiments.RunFig8(opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "Fig 8 — mechanism comparison, llama3-70b @%dK/scale%d\n%s\n",
				8, scale, experiments.RenderFig8(rows))
		case "fig9a", "fig9b":
			model := workload.Llama3_70B
			if id == "fig9b" {
				model = workload.Llama3_405B
			}
			r, err := experiments.RunFig9(model, opts)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, stats.Table(
				fmt.Sprintf("Fig 9 (%s) — %s @32K/scale%d, speedup vs unopt@32MB/scale", id, model.Name, scale),
				r.Series))
			fmt.Fprintln(stdout)
		case "hwcost":
			fmt.Fprintf(stdout, "Section 6.1 — hardware cost @15nm\n%s\n", experiments.RenderHWCost(experiments.RunHWCost()))
		default:
			return fmt.Errorf("unknown experiment %q (known: %v)", id, experiments.IDs())
		}
	}
	return nil
}

func printFig7Panel(stdout io.Writer, id string, r *experiments.Fig7Result) {
	switch id {
	case "fig7a", "fig7d":
		fmt.Fprint(stdout, stats.Table(fmt.Sprintf("Fig 7 (%s) — %s throttling speedup vs unopt", id, r.Model.Name), r.Throttling))
	case "fig7b", "fig7e":
		fmt.Fprint(stdout, stats.Table(fmt.Sprintf("Fig 7 (%s) — %s arbitration speedup vs dynmg", id, r.Model.Name), r.Arbitration))
	case "fig7c", "fig7f":
		fmt.Fprint(stdout, stats.Table(fmt.Sprintf("Fig 7 (%s) — %s cumulative speedup vs unopt", id, r.Model.Name), r.Cumulative))
	}
	fmt.Fprintln(stdout)
}
