package core

import (
	"math"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

// int8Model builds the model and materializes its int8 weight form: the
// executor runs a layer on the int8 kernels exactly when the model holds
// that form, so precision is a property of the model.
func int8Model(t *testing.T, name string, dims []int, seed int64) *gnn.Model {
	t.Helper()
	m := gnn.MustModel(name, dims, seed)
	if err := gnn.QuantizeModel(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The int8 accuracy harness: for every model in the zoo and both graph
// shapes, the quantized execution must track the float32 execution within a
// documented bound. Per-row symmetric int8 bounds each quantized operand's
// error by half a quantization step (scale/2 = rowmax/254), so a single
// GEMV's output error is a fraction of a percent of the row max; the bound
// here is per-layer max-abs error <= 6% of that layer's max |float32|
// output, which absorbs the worst observed compounding (GIN chains two
// quantized GEMVs per layer, and layer-2 inputs already carry layer-1's
// quantization error).
func TestInt8AccuracyHarness(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := gnn.MustModel(name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			want, err := gnn.Forward(m, g, x)
			if err != nil {
				t.Fatalf("%s/%s float32: %v", g.Name(), name, err)
			}
			got, err := gnn.Forward(int8Model(t, name, []int{24, 12, 5}, 11), g, x)
			if err != nil {
				t.Fatalf("%s/%s int8: %v", g.Name(), name, err)
			}
			var total float64
			for li := range want {
				var maxRef, maxDiff float64
				for i, v := range want[li].Data {
					if a := math.Abs(float64(v)); a > maxRef {
						maxRef = a
					}
					if d := math.Abs(float64(v - got[li].Data[i])); d > maxDiff {
						maxDiff = d
					}
				}
				bound := 0.06*maxRef + 1e-5
				if maxDiff > bound {
					t.Errorf("%s/%s layer %d: int8 max abs err %g > %g (max |float32| %g)",
						g.Name(), name, li, maxDiff, bound, maxRef)
				}
				total += maxDiff
			}
			if total == 0 {
				t.Errorf("%s/%s: int8 output equals float32 exactly — the int8 kernels did not run", g.Name(), name)
			}
		}
	}
}

// The int8 tier keeps the float32 tier's determinism guarantee: integer
// chain sums are exact and every other kernel runs per row, so serial and
// row-parallel quantized execution are byte-identical.
func TestInt8ParallelBitIdentical(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ErdosRenyi(300, 1500, 3),
		graph.RMAT(9, 4000, 7),
	}
	for _, g := range graphs {
		for _, name := range gnn.AllModelNames() {
			m := int8Model(t, name, []int{24, 12, 5}, 11)
			x := gnn.RandomFeatures(g, 24, 13)
			assertWorkerInvariant(t, m, g, x, g.Name()+"/"+name+"/int8")
		}
	}
}

// The int8 hot path inherits the steady-state allocation discipline: the
// quantized psrc buffer and per-worker int8 scratch recycle, so a warm
// forward pass allocates only its per-layer outputs plus constant
// bookkeeping.
func TestInt8SteadyStateAllocs(t *testing.T) {
	assertSteadyStateAllocs(t, int8Model(t, "gcn", []int{64, 16, 4}, 1))
}
