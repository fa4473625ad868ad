// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6). Each benchmark runs the corresponding
// experiment harness and reports the headline numbers of the figure
// as custom metrics (geomean speedups, utilisations, areas), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. By default the workload matrix is
// scaled down 32x (sequence lengths and cache sizes divided together,
// preserving every working-set-to-cache ratio). Set LLAMCAT_SCALE to
// choose another factor, or LLAMCAT_FULL=1 for paper scale (hours).
package llamcat

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchRecord is one benchmark's entry in BENCH_results.json, the
// per-PR performance trajectory file.
type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	WallSeconds float64 `json:"wall_seconds"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	Scale       int     `json:"scale"`
}

var (
	benchRecMu sync.Mutex
	benchRecs  []benchRecord
)

// record captures a benchmark's wall clock and allocation rate;
// benchmarks call it as `defer record(b)()` so every figure's cost
// lands in BENCH_results.json.
func record(b *testing.B) func() {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		benchRecMu.Lock()
		defer benchRecMu.Unlock()
		n := b.N
		if n < 1 {
			n = 1
		}
		rec := benchRecord{
			Name:        b.Name(),
			N:           b.N,
			WallSeconds: b.Elapsed().Seconds(),
			NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(n),
			AllocsPerOp: (m1.Mallocs - m0.Mallocs) / uint64(n),
			Scale:       benchScale(),
		}
		// b.N calibration invokes a benchmark several times; keep only
		// the final (largest-N, fully calibrated) measurement per name.
		for i := range benchRecs {
			if benchRecs[i].Name == rec.Name {
				benchRecs[i] = rec
				return
			}
		}
		benchRecs = append(benchRecs, rec)
	}
}

// TestMain writes BENCH_results.json after a -bench run so the perf
// trajectory is tracked across PRs.
func TestMain(m *testing.M) {
	code := m.Run()
	benchRecMu.Lock()
	recs := benchRecs
	benchRecMu.Unlock()
	if len(recs) > 0 {
		if data, err := json.MarshalIndent(recs, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_results.json", append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bench: writing BENCH_results.json:", err)
			}
		}
	}
	os.Exit(code)
}

func benchScale() int {
	if os.Getenv("LLAMCAT_FULL") == "1" {
		return 1
	}
	if s := os.Getenv("LLAMCAT_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 32
}

func fig7For(b *testing.B, model workload.ModelConfig) *experiments.Fig7Result {
	b.Helper()
	r, err := experiments.RunFig7(model, experiments.Options{Scale: benchScale()})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func fig9For(b *testing.B, model workload.ModelConfig) *experiments.Fig9Result {
	b.Helper()
	// Fig 9's smallest cache approaches the minimum live working set
	// under aggressive scaling; cap the scale at 16.
	s := benchScale()
	if s > 16 {
		s = 16
	}
	r, err := experiments.RunFig9(model, experiments.Options{Scale: s})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func fig8Rows(b *testing.B) []experiments.Fig8Row {
	b.Helper()
	rows, err := experiments.RunFig8(experiments.Options{Scale: benchScale()})
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func geomeanOf(series []stats.Series, label string) float64 {
	for _, s := range series {
		if s.Label != label {
			continue
		}
		vals := make([]float64, len(s.Points))
		for i, p := range s.Points {
			vals[i] = p.Y
		}
		return stats.Geomean(vals)
	}
	return 0
}

// BenchmarkFig7a_Throttling70B regenerates Fig. 7(a–c) on Llama3-70B:
// one simulation matrix yields all three panels — throttling speedups
// (dyncta, lcs, dynmg) vs unoptimized, arbitration speedups over
// dynmg, and cumulative speedups vs unoptimized.
func BenchmarkFig7a_Throttling70B(b *testing.B) {
	defer record(b)()
	for i := 0; i < b.N; i++ {
		r := fig7For(b, workload.Llama3_70B)
		b.ReportMetric(geomeanOf(r.Throttling, "dynmg"), "dynmg-geomean-x")
		b.ReportMetric(geomeanOf(r.Throttling, "dyncta"), "dyncta-geomean-x")
		b.ReportMetric(geomeanOf(r.Throttling, "lcs"), "lcs-geomean-x")
		b.ReportMetric(geomeanOf(r.Arbitration, "dynmg+BMA"), "BMA-geomean-x")
		b.ReportMetric(geomeanOf(r.Arbitration, "dynmg+cobrra"), "cobrra-geomean-x")
		b.ReportMetric(geomeanOf(r.Cumulative, "dynmg+BMA"), "dynmg+BMA-geomean-x")
	}
}

// BenchmarkFig7d_Throttling405B regenerates Fig. 7(d–f) for
// Llama3-405B from one simulation matrix.
func BenchmarkFig7d_Throttling405B(b *testing.B) {
	defer record(b)()
	for i := 0; i < b.N; i++ {
		r := fig7For(b, workload.Llama3_405B)
		b.ReportMetric(geomeanOf(r.Throttling, "dynmg"), "dynmg-geomean-x")
		b.ReportMetric(geomeanOf(r.Arbitration, "dynmg+BMA"), "BMA-geomean-x")
		b.ReportMetric(geomeanOf(r.Cumulative, "dynmg+BMA"), "dynmg+BMA-geomean-x")
	}
}

// BenchmarkFig8_Mechanism regenerates Fig. 8: the policy-by-policy
// breakdown of MSHR entry utilisation, hit rates and DRAM bandwidth
// for Llama3-70B @8K-equivalent.
func BenchmarkFig8_Mechanism(b *testing.B) {
	defer record(b)()
	for i := 0; i < b.N; i++ {
		rows := fig8Rows(b)
		for _, r := range rows {
			if r.Policy == "unopt" {
				b.ReportMetric(r.MSHRHitRate, "unopt-mshr-hit")
				b.ReportMetric(r.DRAMBwGBs, "unopt-GB/s")
			}
			if r.Policy == "dynmg+BMA" {
				b.ReportMetric(r.MSHRHitRate, "BMA-mshr-hit")
				b.ReportMetric(r.DRAMBwGBs, "BMA-GB/s")
				b.ReportMetric(r.RelPerf, "BMA-perf-x")
			}
		}
	}
}

// BenchmarkFig9a_CacheSweep70B regenerates Fig. 9(a): cache-size
// sensitivity at a 32K-equivalent sequence, Llama3-70B.
func BenchmarkFig9a_CacheSweep70B(b *testing.B) {
	defer record(b)()
	for i := 0; i < b.N; i++ {
		r := fig9For(b, workload.Llama3_70B)
		b.ReportMetric(geomeanOf(r.Series, "dynmg+BMA"), "dynmg+BMA-geomean-x")
		b.ReportMetric(geomeanOf(r.Series, "dyncta"), "dyncta-geomean-x")
		b.ReportMetric(geomeanOf(r.Series, "unopt"), "unopt-geomean-x")
	}
}

// BenchmarkFig9b_CacheSweep405B regenerates Fig. 9(b) for Llama3-405B.
func BenchmarkFig9b_CacheSweep405B(b *testing.B) {
	defer record(b)()
	for i := 0; i < b.N; i++ {
		r := fig9For(b, workload.Llama3_405B)
		b.ReportMetric(geomeanOf(r.Series, "dynmg+BMA"), "dynmg+BMA-geomean-x")
	}
}

// BenchmarkTableParams_GearSweep is the ablation behind Tables 1–3:
// dynmg restricted to successively higher maximum gears on a
// cache-constrained workload.
func BenchmarkTableParams_GearSweep(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	if scale > 16 {
		scale = 16
	}
	op := Logit(Llama3_70B, 16384/scale)
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		base, err := Run(cfg, op, PolicyUnopt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(cfg, op, PolicyDynMG)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Speedup(base, res), "dynmg-x")
	}
}

// BenchmarkHWCost_Area regenerates the Section 6.1 synthesis table via
// the calibrated area model.
func BenchmarkHWCost_Area(b *testing.B) {
	defer record(b)()
	var rows []experiments.HWCostRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunHWCost()
	}
	for _, r := range rows {
		switch r.Block {
		case "arbiter (incl. request queue)":
			b.ReportMetric(r.AreaUm2, "arbiter-um2")
		case "hit buffer":
			b.ReportMetric(r.AreaUm2, "hitbuf-um2")
		}
	}
}

// BenchmarkAblation_ReqRespArb compares the two Section 3.3
// request-response arbitration flavours (the paper reports similar
// gains under both).
func BenchmarkAblation_ReqRespArb(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	op := Logit(Llama3_70B, 16384/scale)
	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"resp-first", "req-first"} {
			cfg := DefaultConfig()
			cfg.L2SizeBytes /= scale
			cfg.ReqRespArb = mode
			res, err := Run(cfg, op, PolicyDynMGBMA)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Cycles), mode+"-cycles")
		}
	}
}

// BenchmarkAV_Extension runs the attention-value extension workload
// under the final policy (not a paper figure; the decode stage's
// other KV-bound kernel).
func BenchmarkAV_Extension(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	op := AV(Llama3_70B, 16384/scale)
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		base, err := RunAV(cfg, op, PolicyUnopt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunAV(cfg, op, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Speedup(base, res), "dynmg+BMA-x")
	}
}

// BenchmarkServe_Default runs the stock eight-request
// continuous-batching scenario under the unoptimized baseline and the
// full policy, reporting the serving-level headline numbers — the
// serving performance trajectory BENCH_results.json tracks alongside
// the figures.
func BenchmarkServe_Default(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	scn, err := DefaultServeScenario(scale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		base, err := Serve(cfg, scn, PolicyUnopt)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := Serve(cfg, scn, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.TokensPerKCycle, "unopt-tok/kcyc")
		b.ReportMetric(opt.TokensPerKCycle, "BMA-tok/kcyc")
		b.ReportMetric(opt.TokenLatency.P99, "BMA-lat-p99")
	}
}

// BenchmarkServe_Saturated runs a closed-batch (all requests at cycle
// 0) scenario that keeps the batch full — the occupancy-bound serving
// regime.
func BenchmarkServe_Saturated(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	minP := 512 / scale
	if minP < 16 {
		minP = 16
	}
	scn, err := NewServeScenario(ServeScenarioConfig{
		Name: "bench/saturated", Seed: 2, NumRequests: 8,
		MinPromptLen: minP, MaxPromptLen: minP * 2,
		MinDecode: 2, MaxDecode: 4,
		MeanInterArrival: 0, MaxBatch: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		m, err := Serve(cfg, scn, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.MeanBatchOccupancy, "occupancy")
		b.ReportMetric(m.QueueDelay.P99, "queue-p99")
	}
}

// BenchmarkServe_Chunked runs an eight-request chunked-prefill
// scenario under KV-capacity admission — the prefill subsystem's entry
// in the performance trajectory: every prompt is prefilled on-node in
// fixed chunks co-scheduled with decode steps, and the headline
// numbers are the TTFT percentiles the decode-only scenarios cannot
// report.
func BenchmarkServe_Chunked(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	minP := 512 / scale
	if minP < 16 {
		minP = 16
	}
	maxP := 2048 / scale
	if maxP < minP {
		maxP = minP
	}
	scn, err := NewServeScenario(ServeScenarioConfig{
		Name: "bench/chunked", Seed: 1, NumRequests: 8,
		MinPromptLen: minP, MaxPromptLen: maxP,
		MinDecode: 4, MaxDecode: 8,
		MeanInterArrival: 30000, MaxBatch: 4,
		Sched: SchedulerConfig{
			Policy:      SchedChunked,
			ChunkTokens: 16,
			KVCapTokens: 4 * int64(maxP+8),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		m, err := Serve(cfg, scn, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.TokensPerKCycle, "tok/kcyc")
		b.ReportMetric(m.TTFT.P50, "ttft-p50")
		b.ReportMetric(m.TTFT.P99, "ttft-p99")
		b.ReportMetric(float64(m.PrefillTokens), "prefill-tok")
	}
}

// BenchmarkServe_Traced is BenchmarkServe_Default with a telemetry
// collector attached — the recorder-overhead entry in the performance
// trajectory. Its allocs/op ceiling in scripts/check_bench_allocs.sh
// pins what recording may cost; the disabled path needs no ceiling of
// its own because it IS BenchmarkServe_Default (a nil recorder takes
// the exact pre-telemetry branches). The shared caches are flushed
// first: BenchmarkServe_Default runs the same steps earlier in the
// process, and a traced run that only replays them checks nothing.
func BenchmarkServe_Traced(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	scn, err := DefaultServeScenario(scale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	FlushStepCaches()
	for i := 0; i < b.N; i++ {
		col := NewTraceCollector(10000)
		m, err := ServeWith(cfg, scn, PolicyDynMGBMA, ServeOptions{
			Recorder: col.Node(0), SampleEvery: col.SampleEvery(),
		})
		if err != nil {
			b.Fatal(err)
		}
		events := col.Events()
		if len(events) == 0 {
			b.Fatal("traced run recorded no events")
		}
		b.ReportMetric(m.TokensPerKCycle, "tok/kcyc")
		b.ReportMetric(float64(len(events)), "events")
	}
}

// BenchmarkCluster_Smoke runs the stock fleet workload on a four-node
// cluster under the balanced (power-of-two) and locality (affinity)
// routers — the cluster layer's entry in the performance trajectory.
func BenchmarkCluster_Smoke(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	scn, err := DefaultClusterScenario(scale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		p2c, err := ServeCluster(cfg, scn, 4, RouterPowerOfTwo, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		aff, err := ServeCluster(cfg, scn, 4, RouterSessionAffinity, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p2c.FleetTokensPerKCycle, "p2c-tok/kcyc")
		b.ReportMetric(p2c.LoadImbalance, "p2c-imbalance")
		b.ReportMetric(aff.FleetTokensPerKCycle, "affinity-tok/kcyc")
		b.ReportMetric(aff.LoadImbalance, "affinity-imbalance")
	}
}

// BenchmarkCluster_Overload drives a fleet into overload — bursty
// arrivals against finite per-node KV caches — with the full
// degradation stack on: chunked prefill, newest-first KV preemption,
// and router-level shedding with retry/backoff and least-loaded
// forwarding. The shed/preempt counters and the goodput under a TTFT
// SLO ride along as custom metrics, keeping graceful degradation
// visible in the performance trajectory.
func BenchmarkCluster_Overload(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	minP := 512 / scale
	if minP < 16 {
		minP = 16
	}
	maxP := 2048 / scale
	if maxP < minP {
		maxP = minP
	}
	arrival, err := ParseArrival("burst:80000:0.4:8")
	if err != nil {
		b.Fatal(err)
	}
	scn, err := NewClusterScenario(ClusterScenarioConfig{
		ScenarioConfig: ServeScenarioConfig{
			Name: "bench/overload", Seed: 9, NumRequests: 16,
			MinPromptLen: minP, MaxPromptLen: maxP,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 15000, MaxBatch: 2,
			Arrival: arrival,
			Sched: SchedulerConfig{
				Policy:      SchedChunked,
				ChunkTokens: 16,
				// ~1.5 max-size reservations per node: tight enough that
				// the burst head blocks on KV and preemption fires.
				KVCapTokens: 3 * int64(maxP+5) / 2,
				Preempt:     PreemptNewest,
			},
		},
		NumSessions: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Saturation scales with the prompt range so the shed/retry path
	// stays exercised at any LLAMCAT_SCALE.
	shed := OverloadConfig{SaturationTokens: 3 * int64(maxP+5), MaxRetries: 3, BackoffBase: 20000, Forward: true}
	slo := SLO{TTFTCycles: 400000}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		m, err := ServeClusterWith(cfg, scn, 2, RouterLeastOutstanding, PolicyDynMGBMA, ClusterOptions{Overload: shed})
		if err != nil {
			b.Fatal(err)
		}
		rep := m.Goodput(slo)
		var preempt int64
		for _, n := range m.PerNode {
			preempt += n.Preemptions
		}
		b.ReportMetric(m.FleetTokensPerKCycle, "tok/kcyc")
		b.ReportMetric(float64(m.Shed), "shed")
		b.ReportMetric(float64(m.Dropped), "dropped")
		b.ReportMetric(float64(preempt), "preempt")
		b.ReportMetric(rep.GoodputPerKCycle, "good-tok/kcyc")
	}
}

// BenchmarkCluster_Faulty runs a fleet through the fault-tolerance
// stack: a mid-run node crash with in-flight victims redispatched to
// the survivors (re-prefilling their generated tokens), a straggler
// window tripling another node's step costs, and health-aware routing
// around the 5000-cycle detection blind spot. The recovery counters
// ride along as custom metrics, keeping fault tolerance visible in
// the performance trajectory.
func BenchmarkCluster_Faulty(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	minP := 512 / scale
	if minP < 16 {
		minP = 16
	}
	maxP := 2048 / scale
	if maxP < minP {
		maxP = minP
	}
	scn, err := NewClusterScenario(ClusterScenarioConfig{
		ScenarioConfig: ServeScenarioConfig{
			Name: "bench/faulty", Seed: 11, NumRequests: 16,
			MinPromptLen: minP, MaxPromptLen: maxP,
			MinDecode: 2, MaxDecode: 5,
			MeanInterArrival: 10000, MaxBatch: 2,
			Sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16},
		},
		NumSessions: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The crash lands inside the arrival window at every LLAMCAT_SCALE
	// (16 arrivals at a 10k-cycle mean span ~160k cycles), so victims
	// are always in flight when node 0 dies.
	faults := FaultConfig{
		Crashes:       []NodeCrash{{Node: 0, At: 60000, Rejoin: 220000}},
		Stragglers:    []NodeStraggler{{Node: 1, From: 100000, To: 300000, Factor: 3}},
		DetectLatency: 5000,
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		m, err := ServeClusterWith(cfg, scn, 2, RouterLeastOutstanding, PolicyDynMGBMA, ClusterOptions{Faults: faults})
		if err != nil {
			b.Fatal(err)
		}
		if m.Redispatched == 0 {
			b.Fatal("committed crash recovered no in-flight requests")
		}
		b.ReportMetric(m.FleetTokensPerKCycle, "tok/kcyc")
		b.ReportMetric(float64(m.Redispatched), "redispatched")
		b.ReportMetric(float64(m.LostTokens), "lost-tok")
		b.ReportMetric(float64(m.DowntimeCycles), "downtime")
	}
}

// BenchmarkCluster_Prefix runs a session-heavy conversational fleet —
// depth-3 sessions whose follow-up turns extend a shared prompt
// prefix — through the prefix-cache stack: per-node LRU prefix
// retention, suffix-only admission, and session-affinity routing to
// the home node holding the prefix. Prefix hits, prefill tokens saved
// and TTFT ride along as custom metrics, keeping the KV-reuse win
// visible in the performance trajectory.
func BenchmarkCluster_Prefix(b *testing.B) {
	defer record(b)()
	scale := benchScale()
	minP := 512 / scale
	if minP < 16 {
		minP = 16
	}
	maxP := 2048 / scale
	if maxP < minP {
		maxP = minP
	}
	scn, err := NewClusterScenario(ClusterScenarioConfig{
		ScenarioConfig: ServeScenarioConfig{
			Name: "bench/prefix", Seed: 13, NumRequests: 24,
			MinPromptLen: minP, MaxPromptLen: maxP,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 60000, MaxBatch: 4,
			SessionDepth: 3,
			Sched: SchedulerConfig{
				Policy:      SchedChunked,
				ChunkTokens: 16,
				// Room for a handful of whole conversations per node so
				// retained prefixes survive until the follow-up turns.
				PrefixCacheTokens: 16 * int64(maxP),
			},
		},
		NumSessions: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L2SizeBytes /= scale
	for i := 0; i < b.N; i++ {
		m, err := ServeCluster(cfg, scn, 2, RouterSessionAffinity, PolicyDynMGBMA)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.FleetTokensPerKCycle, "tok/kcyc")
		b.ReportMetric(m.TTFT.P50, "ttft-p50")
		b.ReportMetric(float64(m.PrefixHits), "pfx-hits")
		b.ReportMetric(float64(m.PrefillTokensSaved), "pfx-saved")
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (simulated
// cycles per second) — a property of the framework itself rather than
// a paper figure, useful for regression tracking.
func BenchmarkEngineThroughput(b *testing.B) {
	defer record(b)()
	op := Logit(Llama3_70B, 512)
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 1 << 20
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, op, PolicyUnopt)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}
