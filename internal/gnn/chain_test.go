package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"scale/internal/graph"
	"scale/internal/tensor"
)

// chainGraph gives vertex v in-degree v%10 from distinct sources, so every
// block boundary of the four-edge reduce chain is hit: no block, full blocks
// only, and full blocks plus a remainder of 1, 2 or 3 edges.
func chainGraph() *graph.Graph {
	const n = 30
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 0; k < v%10; k++ {
			b.AddEdge((v+1+3*k)%n, v)
		}
	}
	return b.Build("chain-degrees")
}

// perEdgeLayer is the executor's float32 layer step written with one
// AccumulateEdge call per in-edge — the layer contract the four-edge chain
// must reproduce bit for bit.
func perEdgeLayer(l Layer, g *graph.Graph, h *tensor.Matrix, degrees []int32) *tensor.Matrix {
	psrc, pdst := PrepareLayer(l, h, 1)
	width := l.Reduce().AccWidth(l.MsgDim())
	acc := make([]float32, width)
	msg := make([]float32, width)
	scratch := make([]float32, l.UpdateScratch())
	out := tensor.NewMatrix(h.Rows, l.OutDim())
	for v := 0; v < g.NumVertices(); v++ {
		for i := range acc {
			acc[i] = 0
		}
		var pdstRow []float32
		if pdst != nil {
			pdstRow = pdst.Row(v)
		}
		nbrs := g.InNeighbors(v)
		for _, u := range nbrs {
			ctx := EdgeContext{Src: int(u), Dst: v, SrcDeg: int(degrees[u]), DstDeg: len(nbrs)}
			l.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, msg, ctx)
		}
		l.UpdateInto(out.Row(v), h.Row(v), l.Reduce().Finalize(acc, l.MsgDim(), len(nbrs)), scratch)
	}
	return out
}

func TestChainedReduceMatchesPerEdgeAccumulate(t *testing.T) {
	g := chainGraph()
	seen := make(map[int]bool)
	for v := 0; v < g.NumVertices(); v++ {
		seen[g.InDegree(v)] = true
	}
	for d := 0; d <= 9; d++ {
		if !seen[d] {
			t.Fatalf("chain graph lacks a vertex of in-degree %d", d)
		}
	}
	rng := rand.New(rand.NewSource(51))
	// Global degrees as a shard worker passes them for its halo vertices:
	// unrelated to the local in-degrees, and 0 for some sources.
	global := make([]int32, g.NumVertices())
	for v := range global {
		global[v] = int32(rng.Intn(60))
	}
	x := tensor.RandomMatrix(rng, g.NumVertices(), 37, 0.5)
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = 0
	}
	for _, name := range []string{"gcn", "gin", "gs-mean"} {
		m := MustModel(name, []int{37, 13}, 8)
		l := m.Layers[0]
		if _, ok := l.(scaledSum); !ok {
			t.Fatalf("%s: layer does not take the chained reduce path", name)
		}
		for _, tc := range []struct {
			label   string
			degrees []int32
		}{{"local", nil}, {"override", global}} {
			ref := tc.degrees
			if ref == nil {
				ref = g.Degrees()
			}
			want := perEdgeLayer(l, g, x, ref)
			for _, workers := range []int{1, 3} {
				got, err := ForwardLayerContext(context.Background(), m, 0, g, x, tc.degrees, workers)
				if err != nil {
					t.Fatalf("%s %s: %v", name, tc.label, err)
				}
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("%s %s workers=%d: element %d (vertex %d) = %#x, per-edge = %#x",
							name, tc.label, workers, i, i/want.Cols,
							math.Float32bits(got.Data[i]), math.Float32bits(w))
					}
				}
			}
		}
	}
}
