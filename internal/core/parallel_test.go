package core

import (
	"sync"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// The acceptance property of the parallel executor: for every model in the
// zoo and both graph shapes (uniform Erdős–Rényi and power-law RMAT), the
// row-parallel execution is byte-identical to the serial sweep — workers
// partition destination rows and each vertex's reduce chain keeps its CSR
// order, so no float is reassociated.
func TestForwardParallelBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := gnn.MustModel(name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			assertWorkerInvariant(t, m, g, x, g.Name()+"/"+name)
		}
	}
}

// assertWorkerInvariant runs m serially and at 2 and 8 workers and fails on
// any differing bit.
func assertWorkerInvariant(t *testing.T, m *gnn.Model, g *graph.Graph, x *tensor.Matrix, label string) {
	t.Helper()
	serial, err := gnn.ForwardParallel(m, g, x, 1)
	if err != nil {
		t.Fatalf("%s serial: %v", label, err)
	}
	for _, workers := range []int{2, 8} {
		par, err := gnn.ForwardParallel(m, g, x, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		for li := range serial {
			if d := par[li].BitDiffs(serial[li]); d != 0 {
				t.Fatalf("%s workers=%d layer %d: %d elements differ", label, workers, li, d)
			}
		}
	}
}

// Concurrent calls share only the executor's state pool, and fp32 and int8
// models share it too: every call must still see exactly its serial result
// while others of another size and precision run beside it.
func TestForwardConcurrentCallsIsolated(t *testing.T) {
	type job struct {
		m    *gnn.Model
		g    *graph.Graph
		x    *tensor.Matrix
		want []*tensor.Matrix
	}
	var jobs []job
	for i, g := range []*graph.Graph{graph.ErdosRenyi(150, 600, 3), graph.RMAT(8, 1500, 5)} {
		for _, m := range []*gnn.Model{
			gnn.MustModel("gcn", []int{12, 8, 4}, 2),
			int8Model(t, "gin", []int{12, 6}, 3),
		} {
			x := gnn.RandomFeatures(g, 12, int64(i))
			want, err := gnn.ForwardParallel(m, g, x, 1)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{m, g, x, want})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j := jobs[(w+i)%len(jobs)]
				got, err := gnn.ForwardParallel(j.m, j.g, j.x, 1+i%3)
				if err != nil {
					t.Error(err)
					return
				}
				for li := range j.want {
					if d := got[li].BitDiffs(j.want[li]); d != 0 {
						t.Errorf("goroutine %d call %d layer %d: %d elements differ", w, i, li, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Forward (the GOMAXPROCS default) must agree byte-for-byte with the
// explicit serial path — the public API's parallelism is unobservable.
func TestForwardDefaultMatchesSerial(t *testing.T) {
	g := graph.ErdosRenyi(200, 900, 5)
	m := gnn.MustModel("ggcn", []int{16, 8, 4}, 3)
	x := gnn.RandomFeatures(g, 16, 9)
	want, err := gnn.ForwardParallel(m, g, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gnn.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		if d := got[li].BitDiffs(want[li]); d != 0 {
			t.Fatalf("layer %d: Forward diverges from serial in %d elements", li, d)
		}
	}
}

// Steady-state forward passes perform no per-vertex or per-edge allocation:
// after the pooled executor state is warm, a whole serial pass allocates
// only its per-layer prepared and result matrices plus a constant amount of
// bookkeeping. The budget is deliberately far below the vertex count, so any
// per-vertex allocation sneaking back into the hot loop fails loudly.
func TestForwardSteadyStateAllocs(t *testing.T) {
	assertSteadyStateAllocs(t, gnn.MustModel("gcn", []int{64, 16, 4}, 1))
}

func assertSteadyStateAllocs(t *testing.T, m *gnn.Model) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop cached state by design")
	}
	g := graph.ErdosRenyi(2000, 8000, 1)
	x := gnn.RandomFeatures(g, 64, 2)
	// Warm the pool (degrees, worker scratch, quantized sources).
	for i := 0; i < 3; i++ {
		if _, err := gnn.ForwardParallel(m, g, x, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := gnn.ForwardParallel(m, g, x, 1); err != nil {
			t.Fatal(err)
		}
	})
	// 2 layers × (prepared + output matrices + closure) + outs slice ≈ 11;
	// anything O(V) or O(E) would be thousands.
	if allocs > 24 {
		t.Fatalf("steady-state forward allocates %v per call (budget 24)", allocs)
	}
}
