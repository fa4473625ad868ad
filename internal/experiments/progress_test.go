package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestGridProgressLog: every grid cell writes exactly one progress
// line, starting with its label, through the one shared logger — even
// with cells finishing concurrently.
func TestGridProgressLog(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	check := func(name string, log *bytes.Buffer, labels []string) {
		t.Helper()
		lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
		if len(lines) != len(labels) {
			t.Fatalf("%s: %d progress lines for %d cells:\n%s", name, len(lines), len(labels), log)
		}
		for _, label := range labels {
			n := 0
			for _, line := range lines {
				if strings.HasPrefix(line, label+" ") {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: %d lines start with cell label %q:\n%s", name, n, label, log)
			}
		}
	}

	var fleetLog bytes.Buffer
	scn := clusterTestScenario(t)
	routers := []cluster.Policy{{Kind: cluster.RoundRobin}, {Kind: cluster.SessionAffinity}}
	if _, err := ClusterGridWith(scn, []int{1, 2}, routers, DynMGBMA, cluster.OverloadConfig{},
		Options{Base: &base, Parallel: 4, Log: &fleetLog}); err != nil {
		t.Fatal(err)
	}
	var fleetLabels []string
	for _, n := range []int{1, 2} {
		for _, r := range routers {
			fleetLabels = append(fleetLabels, fmt.Sprintf("%s-n%d-%s-%s", scn.Name, n, r, DynMGBMA.Label))
		}
	}
	check("fleet grid", &fleetLog, fleetLabels)

	var serveLog bytes.Buffer
	cells := schedCells(schedGridScenario(t), chunkSweep(16), []Policy{Unopt, DynMGBMA})
	if _, err := RunServeCells(cells, Options{Base: &base, Parallel: 4, Log: &serveLog}); err != nil {
		t.Fatal(err)
	}
	var serveLabels []string
	for _, c := range cells {
		serveLabels = append(serveLabels, c.Label)
	}
	check("serving grid", &serveLog, serveLabels)
}
