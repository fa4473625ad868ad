// Policycompare reproduces a scaled Fig. 7 column: every throttling
// and arbitration policy of the paper on one workload, reporting the
// speedup ladder (unopt → baselines → dynmg → dynmg+BMA).
//
//	go run ./examples/policycompare
//	go run ./examples/policycompare -model 405b -seq 1024
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
)

func main() {
	model := flag.String("model", "70b", "model: 70b or 405b")
	seq := flag.Int("seq", 2048, "sequence length (scaled; paper uses 4K-32K)")
	l2MiB := flag.Int("l2", 2, "L2 size in MiB (scaled; paper uses 16)")
	flag.Parse()

	m := llamcat.Llama3_70B
	if *model == "405b" {
		m = llamcat.Llama3_405B
	}
	cfg := llamcat.DefaultConfig()
	cfg.L2SizeBytes = *l2MiB << 20
	op := llamcat.Logit(m, *seq)

	policies := []llamcat.Policy{
		llamcat.PolicyUnopt, llamcat.PolicyDyncta, llamcat.PolicyLCS, llamcat.PolicyCobrra,
		llamcat.PolicyDynMG, llamcat.PolicyDynMGB, llamcat.PolicyDynMGMA, llamcat.PolicyDynMGBMA,
	}

	fmt.Printf("workload %s, L2 %d MiB\n\n", op.Name(), *l2MiB)
	fmt.Printf("%-12s %12s %9s %9s %9s %9s %9s\n",
		"policy", "cycles", "speedup", "L2-hit", "mshr-hit", "util", "t_cs")

	var base llamcat.Result
	for i, p := range policies {
		res, err := llamcat.Run(cfg, op, p)
		if err != nil {
			log.Fatalf("%s: %v", p.Label, err)
		}
		if i == 0 {
			base = res
		}
		fmt.Printf("%-12s %12d %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			p.Label, res.Cycles, llamcat.Speedup(base, res),
			res.Metrics.L2HitRate, res.Metrics.MSHRHitRate,
			res.Metrics.MSHREntryUtil, res.Metrics.CacheStallFrac)
	}
}
