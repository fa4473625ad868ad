package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// call runs a workload once at the given internal width and returns a
// function rendering its output in canonical form, so the rendering
// stays outside the timed region.
type call func(width int) (canon func() ([]byte, error), err error)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	why  string
	// warm is how many times a child repeats the identical call after
	// the cold one; a child's warm_wall_s is the median of them.
	warm int
	// prepare is the set-up: it builds the inputs for a seed and returns
	// the call. setup_s covers process start-up plus prepare.
	prepare func(seed uint64) (call, error)
}

// Calls are sized so that one lasts one to four seconds at width 2: a
// run then holds enough fresh children for its medians to ride out the
// host's slow spells. The figures run at scale 128 (Fig. 9: sequence
// 256, L2 128K..512K; Fig. 7: sequences 32..128), which keeps each
// figure's regime. Fleet scenarios use the bench_test.go populations at
// the default scale 32: prompts of 512/32 .. 2048/32 tokens. A fleet
// child's warm repeats last about 0.3 s in all, so that their median
// does not rest on one instant of the host.
const (
	figScale   = 128
	fleetScale = 32
	minPrompt  = 512 / fleetScale
	maxPrompt  = 2048 / fleetScale
)

var workloads = []benchWorkload{
	{
		name:    "fig9-cachesweep",
		why:     "Fig. 9 cache-capacity regime: 21 single-operator cells across L2 sizes, nearly all cycle-engine time; no step path or cluster",
		warm:    1,
		prepare: prepareFig9,
	},
	{
		name:    "fig7-mshr",
		why:     "Fig. 7 MSHR-throughput regime: 48 cells, a third as long as fig9's, whose working set fits the cache, so per-cell fixed costs weigh more",
		warm:    1,
		prepare: prepareFig7,
	},
	{
		name:    "fleet-prefix",
		why:     "2-node affinity fleet with prefix cache: the step memo misses on nearly every step, so cold time is step simulation on the resettable engine",
		warm:    2001,
		prepare: prepareFleetPrefix,
	},
	{
		name:    "fleet-overload-grid",
		why:     "overload population over nodes {2,4} x 6 routers: most steps replay from the shared memo while preemption, shedding and forwarding run",
		warm:    301,
		prepare: prepareOverloadGrid,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// fingerprints are the sha256 of each workload's canonical output at
// seed 0, identical at width 1 and 2. Figure workloads take no seed, so
// theirs is checked on every run; fleet workloads are checked against
// it only at seed 0.
var fingerprints = map[string]string{
	"fig9-cachesweep":     "e5ccdc8d4585d8598cbd599bc49b8dbd894b68bae9415d84a958fcdeec140279",
	"fig7-mshr":           "7acca035ce9cbac7a3db74d916670b462e909e90f170b9c9e1200d68f5112889",
	"fleet-prefix":        "a92c13aca9879b3460420c2ee8b1acec4152f39b2aed64f5833042536b29aa22",
	"fleet-overload-grid": "a5ee581a877c54f3b2f30410c80bde90dabf217bf1cb7c41765b97da1944064b",
}

func fingerprint(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// canonSeries renders figure series with every value at full precision.
func canonSeries(b *bytes.Buffer, panel string, series []stats.Series) {
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(b, "%s|%s|%s|%.17g\n", panel, s.Label, p.X, p.Y)
		}
	}
}

// canonFleet renders fleet metrics as JSON without the step-cache
// diagnostics, which depend on fan-out timing and process history.
func canonFleet(ms ...*cluster.Metrics) ([]byte, error) {
	for _, m := range ms {
		m.StripStepCache()
	}
	return json.Marshal(ms)
}

func prepareFig9(uint64) (call, error) {
	return func(width int) (func() ([]byte, error), error) {
		r, err := experiments.RunFig9(workload.Llama3_70B, experiments.Options{Scale: figScale, Parallel: width})
		if err != nil {
			return nil, err
		}
		return func() ([]byte, error) {
			var b bytes.Buffer
			canonSeries(&b, "fig9", r.Series)
			return b.Bytes(), nil
		}, nil
	}, nil
}

func prepareFig7(uint64) (call, error) {
	models := []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B}
	return func(width int) (func() ([]byte, error), error) {
		var rs []*experiments.Fig7Result
		for _, m := range models {
			r, err := experiments.RunFig7(m, experiments.Options{Scale: figScale, Parallel: width})
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
		return func() ([]byte, error) {
			var b bytes.Buffer
			for _, r := range rs {
				canonSeries(&b, r.Model.Name+"/throttling", r.Throttling)
				canonSeries(&b, r.Model.Name+"/arbitration", r.Arbitration)
				canonSeries(&b, r.Model.Name+"/cumulative", r.Cumulative)
			}
			return b.Bytes(), nil
		}, nil
	}, nil
}

// fleetConfig is the fleet node hardware: Table 5 with L2/32 under
// dynmg+BMA.
func fleetConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= fleetScale
	cfg.Throttle = experiments.DynMGBMA.Throttle
	cfg.Arbiter = arbiter.BMA
	return cfg
}

// prefixScenario is BenchmarkCluster_Prefix's population cut to 9 of
// its 24 requests and 3 of its 8 sessions, so a cold call lasts about
// 1.6 s instead of 4.5 s: depth-3 sessions whose follow-up turns extend
// a shared prompt prefix.
func prefixScenario(seed uint64) (cluster.Scenario, error) {
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "bench/prefix", Seed: 13, NumRequests: 9,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 60000, MaxBatch: 4,
			SessionDepth: 3,
			Sched: serving.SchedulerConfig{
				Policy:            serving.SchedChunked,
				ChunkTokens:       16,
				PrefixCacheTokens: 16 * maxPrompt,
			},
		},
		NumSessions: 3,
	})
	return permuteGaps(scn, seed), err
}

// overloadScenario is BenchmarkCluster_Overload's population: bursty
// arrivals against KV caches that hold ~1.5 maximal requests per node.
func overloadScenario(seed uint64) (cluster.Scenario, cluster.OverloadConfig, error) {
	arrival, err := serving.ParseArrival("burst:80000:0.4:8")
	if err != nil {
		return cluster.Scenario{}, cluster.OverloadConfig{}, err
	}
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "bench/overload", Seed: 9, NumRequests: 16,
			MinPromptLen: minPrompt, MaxPromptLen: maxPrompt,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: arrival,
			Sched: serving.SchedulerConfig{
				Policy:      serving.SchedChunked,
				ChunkTokens: 16,
				KVCapTokens: 3 * int64(maxPrompt+5) / 2,
				Preempt:     serving.PreemptNewest,
			},
		},
		NumSessions: 4,
	})
	ov := cluster.OverloadConfig{SaturationTokens: 3 * int64(maxPrompt+5), MaxRetries: 3, BackoffBase: 20000, Forward: true}
	return permuteGaps(scn, seed), ov, err
}

// permuteGaps shuffles the inter-arrival gaps of a population with a
// seeded Fisher-Yates pass; seed 0 leaves it unchanged. Request shapes,
// sessions, arrival order and the multiset of gaps are kept, so every
// seed asks for about the same simulation work while batching, memo
// reuse and routing differ. Redrawing the whole population instead
// moves cold time by ±15% from one seed to the next, more than any
// regression bound could absorb.
func permuteGaps(scn cluster.Scenario, seed uint64) cluster.Scenario {
	if seed == 0 || len(scn.Requests) == 0 {
		return scn
	}
	reqs := append([]cluster.Request(nil), scn.Requests...)
	gaps := make([]int64, len(reqs))
	var prev int64
	for i, r := range reqs {
		gaps[i], prev = r.ArrivalCycle-prev, r.ArrivalCycle
	}
	rng := serving.Rand{State: seed}
	for i := len(gaps) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		gaps[i], gaps[j] = gaps[j], gaps[i]
	}
	var t int64
	for i := range reqs {
		t += gaps[i]
		reqs[i].ArrivalCycle = t
	}
	scn.Requests = reqs
	return scn
}

func prepareFleetPrefix(seed uint64) (call, error) {
	scn, err := prefixScenario(seed)
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig()
	serving.FlushSharedCaches()
	return func(width int) (func() ([]byte, error), error) {
		m, err := cluster.Run(cfg, scn, 2, cluster.Policy{Kind: cluster.SessionAffinity}, cluster.Options{Parallel: width})
		if err != nil {
			return nil, err
		}
		return func() ([]byte, error) { return canonFleet(m) }, nil
	}, nil
}

func prepareOverloadGrid(seed uint64) (call, error) {
	scn, ov, err := overloadScenario(seed)
	if err != nil {
		return nil, err
	}
	serving.FlushSharedCaches()
	return overloadGridCall(scn, ov), nil
}

func overloadGridCall(scn cluster.Scenario, ov cluster.OverloadConfig) call {
	return func(width int) (func() ([]byte, error), error) {
		g, err := experiments.ClusterGridWith(scn, []int{2, 4}, cluster.Policies(), experiments.DynMGBMA, ov,
			experiments.Options{Scale: fleetScale, Parallel: width})
		if err != nil {
			return nil, err
		}
		return func() ([]byte, error) {
			var ms []*cluster.Metrics
			for _, row := range g.Metrics {
				ms = append(ms, row...)
			}
			return canonFleet(ms...)
		}, nil
	}
}
