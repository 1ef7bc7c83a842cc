package core

import (
	"context"
	"errors"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
)

// Chaining gnn.ForwardLayerContext layer by layer must reproduce
// gnn.ForwardContext bit for bit — this is the contract the sharded serving
// tier's per-layer halo exchange is built on.
func TestForwardLayerChainBitIdentical(t *testing.T) {
	g := graph.CommunityGraph(300, 6, 10, 11)
	for _, model := range []string{"gcn", "ggcn", "gs-pl", "gin", "gat"} {
		m := gnn.MustModel(model, []int{12, 8, 5}, 1)
		x := gnn.RandomFeatures(g, 12, 3)
		want, err := gnn.ForwardContext(context.Background(), m, g, x, 1)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		h := x
		for li := range m.Layers {
			out, err := gnn.ForwardLayerContext(context.Background(), m, li, g, h, nil, 1)
			if err != nil {
				t.Fatalf("%s layer %d: %v", model, li, err)
			}
			wl := want[li]
			if out.Rows != wl.Rows || out.Cols != wl.Cols {
				t.Fatalf("%s layer %d: shape %dx%d, want %dx%d", model, li, out.Rows, out.Cols, wl.Rows, wl.Cols)
			}
			if d := out.BitDiffs(wl); d != 0 {
				t.Fatalf("%s layer %d: %d elements differ", model, li, d)
			}
			h = out
		}
	}
}

// Explicit degrees equal to the graph's own are a no-op, other degrees reach
// the message functions on both precision tiers, and mismatched lengths and
// out-of-range layer indices are typed input errors.
func TestForwardLayerDegreesAndValidation(t *testing.T) {
	g := graph.ErdosRenyi(120, 600, 7)
	m := gnn.MustModel("gcn", []int{6, 4}, 1)
	mq := gnn.MustModel("gcn", []int{6, 4}, 1)
	if err := gnn.QuantizeModel(mq); err != nil {
		t.Fatal(err)
	}
	x := gnn.RandomFeatures(g, 6, 5)
	shifted := g.Degrees()
	for v := range shifted {
		shifted[v] += 3
	}
	for _, model := range []*gnn.Model{m, mq} {
		want, err := gnn.ForwardLayerContext(context.Background(), model, 0, g, x, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gnn.ForwardLayerContext(context.Background(), model, 0, g, x, g.Degrees(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.BitDiffs(want); d != 0 {
			t.Fatalf("quantized=%v: explicit own-degrees changed %d elements", gnn.LayerQuantized(model.Layers[0]), d)
		}
		other, err := gnn.ForwardLayerContext(context.Background(), model, 0, g, x, shifted, 1)
		if err != nil {
			t.Fatal(err)
		}
		if other.Equal(want) {
			t.Fatalf("quantized=%v: a degree override did not reach the message functions", gnn.LayerQuantized(model.Layers[0]))
		}
	}

	if _, err := gnn.ForwardLayerContext(context.Background(), m, 2, g, x, nil, 1); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("layer out of range: err = %v, want ErrBadConfig", err)
	}
	if _, err := gnn.ForwardLayerContext(context.Background(), m, -1, g, x, nil, 1); !errors.Is(err, fault.ErrBadConfig) {
		t.Fatalf("negative layer: err = %v, want ErrBadConfig", err)
	}
	if _, err := gnn.ForwardLayerContext(context.Background(), m, 0, g, x, make([]int32, 3), 1); !errors.Is(err, fault.ErrBadShape) {
		t.Fatalf("short degrees: err = %v, want ErrBadShape", err)
	}
}
