package core

import (
	"math/rand"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
)

// Soak: randomized bit-exact cross-validation of the dataflow proof against
// the golden reference over many (graph, model, config) combinations. Guarded by
// -short; the full sweep runs ~60 configurations.
func TestSoakFunctionalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2024))
	models := gnn.AllModelNames()
	policies := []sched.Policy{sched.DegreeVertexAware, sched.DegreeAware, sched.VertexAware}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300) + 20
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.ErdosRenyi(n, n*(rng.Intn(6)+1), int64(trial))
		case 1:
			g = graph.PreferentialAttachment(n, rng.Intn(3)+1, int64(trial))
		default:
			g = graph.CommunityGraph(n, n/10+1, rng.Intn(10)+4, int64(trial))
		}
		name := models[trial%len(models)]
		in := rng.Intn(24) + 4
		hid := rng.Intn(12) + 4
		out := rng.Intn(6) + 2
		m := gnn.MustModel(name, []int{in, hid, out}, int64(trial))
		x := gnn.RandomFeatures(g, in, int64(trial)+7)
		want, err := gnn.Forward(m, g, x)
		if err != nil {
			t.Fatalf("trial %d (%s on %v): reference: %v", trial, name, g, err)
		}
		cfg := DefaultConfig()
		cfg.Policy = policies[trial%len(policies)]
		if trial%4 == 0 {
			cfg.BatchSize = rng.Intn(500) + 32
		}
		got, err := MustNew(cfg).Forward(m, g, x)
		if err != nil {
			t.Fatalf("trial %d (%s on %v): dataflow: %v", trial, name, g, err)
		}
		for li := range want {
			if d := want[li].BitDiffs(got[li]); d != 0 {
				t.Fatalf("trial %d (%s on %v, policy %v): layer %d: %d elements differ (max diff %g)",
					trial, name, g, cfg.Policy, li, d, want[li].MaxAbsDiff(got[li]))
			}
		}
	}
}
