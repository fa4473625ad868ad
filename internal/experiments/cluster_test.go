package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hwprof"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func clusterTestScenario(t *testing.T) cluster.Scenario {
	t.Helper()
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "grid/test", Seed: 5, NumRequests: 6,
			MinPromptLen: 16, MaxPromptLen: 32,
			MinDecode: 2, MaxDecode: 2,
			MeanInterArrival: 4000, MaxBatch: 2,
		},
		NumSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestClusterGridParallelDeterminism: the router × node-count matrix
// returns bit-identical fleet metrics in matrix order at any worker
// count — the two nested levels of parallelism (cells on the pool,
// node engines inside each cell) never change a number.
func TestClusterGridParallelDeterminism(t *testing.T) {
	scn := clusterTestScenario(t)
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	nodeCounts := []int{1, 2}
	routers := []cluster.Policy{{Kind: cluster.RoundRobin}, {Kind: cluster.SessionAffinity}}

	serial, err := ClusterGridWith(scn, nodeCounts, routers, DynMGBMA, cluster.OverloadConfig{}, Options{Base: &base, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ClusterGridWith(scn, nodeCounts, routers, DynMGBMA, cluster.OverloadConfig{}, Options{Base: &base, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// StepCache counters are diagnostics outside the bit-identity
	// contract (cells share the process-wide step memo).
	for _, row := range serial.Metrics {
		for _, m := range row {
			m.StripStepCache()
		}
	}
	for _, row := range parallel.Metrics {
		for _, m := range row {
			m.StripStepCache()
		}
	}
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatal("cluster grid results depend on worker count")
	}

	rendered := serial.Render()
	for _, r := range routers {
		if !strings.Contains(rendered, r.String()) {
			t.Fatalf("rendered grid missing router %q:\n%s", r, rendered)
		}
	}
	if !strings.Contains(rendered, DynMGBMA.Label) {
		t.Fatalf("rendered grid missing cache policy label:\n%s", rendered)
	}
}

// TestRunClusterCellsLendsPools: a grid worker runs its cells one after
// another on one cluster.Scratch — step simulators, node engines and
// router tables — so every cell after a worker's first starts from what
// an earlier cell left behind. First a grid at Parallel 2, whose two
// workers alternate cache policy and AV. Then one worker's consecutive
// cells, lent one Scratch as RunClusterCells lends it: they alternate
// node count (2, 4), prefix cache on and off, a KV cap with preemption,
// overload control, a fault plan, telemetry and hwprof, and one cell
// fails mid-run with a preempted request still waiting. Every cell must
// equal the cell run alone on fresh state, and the metrics returned
// first must be byte-identical once the last cell has run.
func TestRunClusterCellsLendsPools(t *testing.T) {
	scn := clusterTestScenario(t)
	av := scn
	av.IncludeAV = true
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	rr := cluster.Policy{Kind: cluster.RoundRobin}
	cells := []ClusterCellSpec{
		{Scenario: scn, Nodes: 2, Router: rr, Pol: DynMGBMA},
		{Scenario: av, Nodes: 2, Router: rr, Pol: Cobrra},
		{Scenario: av, Nodes: 2, Router: rr, Pol: DynMGBMA},
		{Scenario: scn, Nodes: 2, Router: rr, Pol: Cobrra},
		{Scenario: av, Nodes: 2, Router: rr, Pol: Unopt},
		{Scenario: scn, Nodes: 2, Router: rr, Pol: Unopt},
	}
	opts := Options{Base: &base, Parallel: 2}
	serving.FlushSharedCaches()
	got, err := RunClusterCells(cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		want, err := cluster.Run(opts.cellConfig(nil, c.Pol), c.Scenario, c.Nodes, c.Router,
			cluster.Options{Parallel: 1, Memo: serving.NewStepMemo()})
		if err != nil {
			t.Fatal(err)
		}
		want.StripStepCache()
		got[i].StripStepCache()
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cell %d (%s, AV %v) diverges from its run alone:\ngot  %+v\nwant %+v",
				i, c.Pol.Label, c.Scenario.IncludeAV, got[i], want)
		}
	}

	// One worker's cells.
	pcfg := prefixGridConfig()
	pcfg.NumRequests, pcfg.NumSessions, pcfg.MaxPromptLen, pcfg.MaxDecode = 6, 2, 16, 2
	pcfg.Sched.PrefixCacheTokens = 4096
	pfx, err := cluster.NewScenario(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	kv := scn
	kv.Sched = serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 48, Preempt: serving.PreemptNewest}
	// On node 0 of two round-robin nodes, request 4 arrives during
	// request 2's prefill and at the next step evicts requests 2 and 0
	// before either has decoded a token; its 64-token prefill, over ten
	// times longer than any other step, exceeds MaxCycles.
	req := func(id, prompt, decode int, at int64) cluster.Request {
		return cluster.Request{ID: id, Model: workload.Llama3_70B,
			PromptLen: prompt, DecodeTokens: decode, ArrivalCycle: at, Session: id}
	}
	abort := cluster.Scenario{Name: "lend/abort", MaxBatch: 3,
		Sched: serving.SchedulerConfig{Policy: serving.SchedPrefillFirst, KVCapTokens: 70, Preempt: serving.PreemptNewest},
		Requests: []cluster.Request{req(0, 16, 4, 0), req(1, 16, 4, 0), req(2, 16, 4, 100),
			req(3, 16, 4, 100), req(4, 64, 2, 30000), req(5, 16, 2, 30000)}}
	hw := hwprof.Spec{Enabled: true, SampleEvery: 20000}
	ov := cluster.OverloadConfig{SaturationTokens: 10, MaxRetries: 2, BackoffBase: 5000, Forward: true}
	crash := cluster.FaultConfig{Crashes: []cluster.Crash{{Node: 1, At: 30000, Rejoin: 90000}}, DetectLatency: 2000}
	type workerCell struct {
		scn       cluster.Scenario
		nodes     int
		router    cluster.Kind
		ov        cluster.OverloadConfig
		ft        cluster.FaultConfig
		trace     bool
		hw        hwprof.Spec
		maxCycles int64 // the cell fails mid-run
	}
	worker := []workerCell{
		{scn: pfx, nodes: 4, router: cluster.PrefixAffinity, hw: hw},
		{scn: pfx, nodes: 2, router: cluster.SessionAffinity, trace: true},
		{scn: kv, nodes: 4, router: cluster.LeastOutstanding, ov: ov, trace: true, hw: hw},
		{scn: abort, nodes: 2, router: cluster.RoundRobin, trace: true, maxCycles: 100_000},
		{scn: scn, nodes: 4, router: cluster.RoundRobin, ft: crash, hw: hw},
	}
	run := func(c workerCell, sc *cluster.Scratch, memo *serving.StepMemo) (*cluster.Metrics, []telemetry.Event, error) {
		cfg := opts.cellConfig(nil, DynMGBMA)
		cfg.MaxCycles = c.maxCycles
		o := cluster.Options{Parallel: 1, Scratch: sc, Memo: memo, Overload: c.ov, Faults: c.ft, HWProf: c.hw}
		if c.trace {
			o.Telemetry = telemetry.NewCollector(10_000)
		}
		m, err := cluster.Run(cfg, c.scn, c.nodes, cluster.Policy{Kind: c.router}, o)
		if o.Telemetry == nil {
			return m, nil, err
		}
		evs := o.Telemetry.Events()
		telemetry.StripMemoHits(evs)
		return m, evs, err
	}
	// Each run alone simulates the steps no earlier cell has; its lent
	// twin replays them unless its state sends it down another path.
	memo := serving.NewStepMemo()
	sc := cluster.NewScratch(1)
	var (
		kept                                []*cluster.Metrics
		first                               [][]byte
		preempts, hits, overloads, failures int64
	)
	for i, c := range worker {
		want, wantEvs, wantErr := run(c, nil, memo)
		m, evs, err := run(c, sc, memo)
		if c.maxCycles > 0 {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("cell %d: err %v, alone %v; want the same step error", i, err, wantErr)
			}
			if !waitingPreempted(evs) {
				t.Fatalf("cell %d failed with no preempted request waiting for re-admission", i)
			}
		} else if err != nil || wantErr != nil {
			t.Fatalf("cell %d: err %v, alone %v", i, err, wantErr)
		}
		if !reflect.DeepEqual(evs, wantEvs) {
			t.Errorf("cell %d: telemetry diverges from its run alone", i)
		}
		if m == nil {
			continue
		}
		m.StripStepCache()
		want.StripStepCache()
		if !reflect.DeepEqual(m, want) {
			t.Errorf("cell %d (%d nodes, %s) diverges from its run alone:\ngot  %+v\nwant %+v",
				i, c.nodes, c.router, m, want)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		kept, first = append(kept, m), append(first, b)
		for _, nm := range m.PerNode {
			preempts += nm.Preemptions
		}
		hits += m.PrefixHits
		overloads += m.Shed + m.Forwarded
		failures += m.Failures
	}
	for i, m := range kept {
		if b, _ := json.Marshal(m); !bytes.Equal(b, first[i]) {
			t.Errorf("the %d-th returned metrics changed once later cells ran", i)
		}
	}
	if preempts == 0 || hits == 0 || overloads == 0 || failures == 0 {
		t.Fatalf("cells ran %d preemptions, %d prefix hits, %d sheds or forwards and %d crashes; want each > 0",
			preempts, hits, overloads, failures)
	}
}

// waitingPreempted reports whether some request's last lifecycle event
// in a trace is its preemption.
func waitingPreempted(evs []telemetry.Event) bool {
	last := make(map[int]telemetry.Kind)
	for _, ev := range evs {
		if ev.Req >= 0 {
			last[ev.Req] = ev.Kind
		}
	}
	for _, k := range last {
		if k == telemetry.KindPreempt {
			return true
		}
	}
	return false
}

// TestRunClusterCellsBaseOverride: a per-cell base config override is
// honoured (hardware sweeps under fleet load).
func TestRunClusterCellsBaseOverride(t *testing.T) {
	scn := clusterTestScenario(t)
	narrow := sim.DefaultConfig()
	narrow.NumCores = 2
	wide := sim.DefaultConfig()

	cells := []ClusterCellSpec{
		{Scenario: scn, Nodes: 2, Router: cluster.Policy{Kind: cluster.RoundRobin}, Pol: Unopt, Base: &narrow},
		{Scenario: scn, Nodes: 2, Router: cluster.Policy{Kind: cluster.RoundRobin}, Pol: Unopt, Base: &wide},
	}
	res, err := RunClusterCells(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Makespan <= res[1].Makespan {
		t.Fatalf("2-core fleet makespan %d not above the 16-core %d",
			res[0].Makespan, res[1].Makespan)
	}
}

// TestRunClusterCellsFirstErrorInInputOrder: cells are dispatched
// round-robin over (scenario, node count, cache policy) groups, so the
// cell at index 2 starts before the one at index 1; with both failing,
// the error returned is still the lower-index cell's, at any width.
func TestRunClusterCellsFirstErrorInInputOrder(t *testing.T) {
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "grid/one", Seed: 5, NumRequests: 1,
			MinPromptLen: 16, MaxPromptLen: 16,
			MinDecode: 1, MaxDecode: 1, MaxBatch: 1,
		},
		NumSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	other := scn
	other.Name = "grid/other"
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	rr := cluster.Policy{Kind: cluster.RoundRobin}
	bad := cluster.OverloadConfig{SaturationTokens: -1}
	cells := []ClusterCellSpec{
		{Scenario: scn, Nodes: 1, Router: rr, Pol: Unopt},
		{Scenario: scn, Nodes: 1, Router: rr, Pol: Unopt, Overload: bad, Label: "low"},
		{Scenario: other, Nodes: 1, Router: rr, Pol: Unopt, Overload: bad, Label: "high"},
	}
	if got, want := interleave(cells), []int{0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	for _, width := range []int{1, 2, 3} {
		_, err := RunClusterCells(cells, Options{Base: &base, Parallel: width})
		if err == nil || !strings.HasPrefix(err.Error(), "cluster cell low:") {
			t.Fatalf("width %d: err = %v, want cell low's", width, err)
		}
	}
}
