// Command sweep performs the parameter sweeps the paper relies on:
// the throttling-configuration sweep behind Tables 2–4 (sampling
// period, gear limit, static thread-block levels) and the baseline
// sweeps of Section 6.2.3 ("For those requiring parameter sweeping,
// we have also swept under our experiment settings for a fair
// comparison").
//
//	sweep -kind static -model 70b -seq 2048 -scale 8
//	sweep -kind gear   -model 70b -seq 2048 -scale 8
//	sweep -kind period -model 70b -seq 2048 -scale 8
//
// The full flag set (documented with defaults in docs/EXPERIMENTS.md,
// which CI keeps in sync with this binary):
//
//	-kind        sweep kind: static, gear, period
//	-model       model: 70b or 405b
//	-seq         sequence length (already scaled)
//	-scale       cache scale divisor (Table 5 16 MB / scale)
//	-parallel    concurrent simulations (0 = GOMAXPROCS)
//	-v           stream per-run progress to stderr
//	-cpuprofile  write a pprof CPU profile to this file
//	-memprofile  write a pprof heap profile to this file
//
// Sweep points are independent simulations and fan out across
// -parallel workers with results in stable order; -cpuprofile and
// -memprofile capture pprof profiles of the sweep for the
// performance work described in README.md.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/throttle"
	"repro/internal/workload"
)

func main() { cli.Main("sweep", run) }

// run runs the command on args and writes its table to stdout.
func run(args []string, stdout io.Writer) error {
	c := cli.NewCommand("sweep").Profiled()
	kind := c.String("kind", "static", "sweep kind: static, gear, period")
	model := c.String("model", "70b", "model: 70b or 405b")
	seq := c.Int("seq", 2048, "sequence length (already scaled)")
	scale := c.Int("scale", 8, "cache scale divisor (Table 5 16MB / scale, >= 1)")
	parallel := c.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	verbose := c.Bool("v", false, "stream per-run progress to stderr")
	return c.Run(args, func() error { return sweep(*kind, *model, *seq, *scale, *parallel, *verbose, stdout) })
}

func sweep(kind, model string, seq, scale, parallel int, verbose bool, stdout io.Writer) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be positive, got %d", scale)
	}
	m, err := workload.ParseModel(model)
	if err != nil {
		return err
	}
	op := workload.LogitOp{Model: m, SeqLen: seq}
	base := sim.DefaultConfig()
	base.L2SizeBytes /= scale

	opts := experiments.Options{Base: &base, Parallel: parallel}
	if verbose {
		opts.Log = os.Stderr
	}
	r := experiments.NewRunner(opts)

	// The swept points plus the unoptimized baseline run as one
	// parallel matrix with stable ordering; cells[0] is the baseline.
	cells := []experiments.CellSpec{{Op: op, Pol: experiments.Unopt}}
	var labels []string
	switch kind {
	case "static":
		for n := 1; n <= base.NumWindows; n++ {
			pol := experiments.Policy{
				Label:    fmt.Sprintf("static:%d", n),
				Throttle: fmt.Sprintf("static:%d", n),
				Arbiter:  experiments.Unopt.Arbiter,
			}
			cells = append(cells, experiments.CellSpec{Op: op, Pol: pol})
			labels = append(labels, pol.Label)
		}
	case "gear":
		for g := 0; g <= 4; g++ {
			cfg := base
			params := throttle.DefaultDynMGParams()
			params.MaxGear = g
			cfg.DynMG = &params
			cells = append(cells, experiments.CellSpec{Op: op, Pol: experiments.DynMG, Base: &cfg})
			labels = append(labels, fmt.Sprintf("gear %d", g))
		}
	case "period":
		for _, p := range []int64{500, 1000, 2000, 4000, 8000} {
			cfg := base
			params := throttle.DefaultDynMGParams()
			params.SamplingPeriod = p
			params.SubPeriod = p / 5
			cfg.DynMG = &params
			cells = append(cells, experiments.CellSpec{Op: op, Pol: experiments.DynMG, Base: &cfg})
			labels = append(labels, fmt.Sprintf("period %d", p))
		}
	default:
		return fmt.Errorf("unknown sweep kind %q", kind)
	}

	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}
	unopt := results[0]
	fmt.Fprintf(stdout, "workload %s, L2 %d KiB, unopt %d cycles\n\n", op.Name(), base.L2SizeBytes>>10, unopt.Cycles)
	fmt.Fprintf(stdout, "%-10s %12s %10s %10s %10s\n", "point", "cycles", "speedup", "mshr-hit", "tcs")
	for i, res := range results[1:] {
		fmt.Fprintf(stdout, "%-10s %12d %10.3f %10.3f %10.3f\n", labels[i], res.Cycles,
			stats.Speedup(unopt.Cycles, res.Cycles), res.Metrics.MSHRHitRate, res.Metrics.CacheStallFrac)
	}
	return nil
}
