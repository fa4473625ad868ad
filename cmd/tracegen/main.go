// Command tracegen generates and inspects memory traces — the
// analytical half of the hybrid simulation framework (Fig. 6 of the
// paper): Timeloop-equivalent mapping selection, optional handwritten
// mappings, and trace serialisation.
//
//	tracegen -model 70b -seq 4096 -o logit70b.trace
//	tracegen -model 405b -seq 1024
//	tracegen -model 70b -seq 1024 -mapping my_mapping.txt -o out.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/dataflow"
	"repro/internal/memreq"
	"repro/internal/memtrace"
	"repro/internal/workload"
)

func main() {
	var (
		model      = flag.String("model", "70b", "model: 70b or 405b")
		seq        = flag.Int("seq", 4096, "sequence length")
		out        = flag.String("o", "", "output trace file (default: print stats only)")
		mapping    = flag.String("mapping", "", "handwritten mapping file (see internal/dataflow)")
		candidates = flag.Bool("candidates", false, "show the selected mapping and its analytical metrics")
	)
	flag.Parse()
	if err := run(*model, *seq, *out, *mapping, *candidates); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(model string, seq int, out, mappingFile string, candidates bool) error {
	m, err := workload.ParseModel(model)
	if err != nil {
		return err
	}
	op := workload.LogitOp{Model: m, SeqLen: seq}

	if candidates {
		best, ev, err := dataflow.FindMapping(op, memreq.LineBytes)
		if err != nil {
			return err
		}
		fmt.Printf("selected mapping (K-share distance %.0f, %d K lines/block, %d blocks):\n%s\n",
			ev.KShareDistance, ev.TBKLines, ev.NumTBs, best)
	}

	var tr *memtrace.Trace
	if mappingFile != "" {
		text, rerr := os.ReadFile(mappingFile)
		if rerr != nil {
			return rerr
		}
		tr, err = llamcat.TraceWithMapping(op, string(text))
	} else {
		tr, err = llamcat.Trace(op)
	}
	if err != nil {
		return err
	}

	fmt.Printf("operator       %s\n", op.Name())
	fmt.Printf("K tensor       %d bytes\n", op.KBytes())
	fmt.Printf("thread blocks  %d\n", len(tr.Blocks))
	fmt.Printf("instructions   %d (%d memory)\n", tr.TotalInsts(), tr.TotalMemInsts())
	fmt.Printf("footprint      %d bytes\n", tr.Footprint(memreq.LineBytes))

	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("wrote          %s\n", out)
	return f.Sync()
}
