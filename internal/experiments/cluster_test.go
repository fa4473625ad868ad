package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/sim"
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

	serial, err := ClusterGrid(scn, nodeCounts, routers, DynMGBMA, Options{Base: &base, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ClusterGrid(scn, nodeCounts, routers, DynMGBMA, Options{Base: &base, Parallel: 4})
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

// TestRunClusterCellsLendsPools: at Parallel 2 each of the grid's two
// workers runs its cells one after another on one width-1 SimPool, so
// every cell after the first two simulates its steps on a step
// simulator that a cell of another cache policy or AV setting left
// behind. Each cell's metrics must equal the cell run alone on a
// private pool and memo.
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
