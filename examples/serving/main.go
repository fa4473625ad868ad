// Serving demonstrates the continuous-batching serving engine through
// the public facade: a stock eight-request mixed-sequence-length
// scenario evaluated under the unoptimized baseline and the paper's
// full dynmg+BMA policy, reporting the serving-level metrics the
// single-operator figures cannot — decode throughput, token-latency
// percentiles and queueing delay.
//
// The paper's observation carries over from kernels to serving: the
// CAT mechanisms relieve the same MSHR and LLC contention when the
// traffic comes from many interleaved decode streams, so the serving
// throughput gap tracks the single-operator speedup.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	scn, err := llamcat.DefaultServeScenario(8)
	if err != nil {
		log.Fatal(err)
	}
	cfg := llamcat.DefaultConfig()
	cfg.L2SizeBytes /= 8 // shrink the cache with the prompt lengths

	fmt.Printf("scenario: %d requests, %d tokens total, batch capacity %d\n\n",
		len(scn.Requests), scn.TotalTokens(), scn.MaxBatch)

	for _, pol := range []llamcat.Policy{llamcat.PolicyUnopt, llamcat.PolicyDynMGBMA} {
		m, err := llamcat.Serve(cfg, scn, pol)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n%s\n", pol.Label, m)
	}
}
