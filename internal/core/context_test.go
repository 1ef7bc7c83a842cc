package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// The executor behaviour tests below pin the gnn executor every inference
// path runs on; the dataflow proof (SCALE.Forward) is pinned against it in
// functional_test.go.

func forwardFixture(t *testing.T) (*gnn.Model, *graph.Graph, *tensor.Matrix) {
	t.Helper()
	g := graph.CommunityGraph(96, 4, 3, 7)
	m, err := gnn.NewModel("gcn", []int{8, 4, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandomMatrix(randNew(3), g.NumVertices(), 8, 1)
	return m, g, x
}

// TestForwardContextCancelled proves a cancelled forward pass stops with the
// context's error, layer-attributed — both at a layer boundary and inside a
// layer, within one block of rows of the cancellation.
func TestForwardContextCancelled(t *testing.T) {
	m, g, x := forwardFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := gnn.ForwardContext(ctx, m, g, x, 2)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "layer 0") {
		t.Fatalf("err = %v, want context.Canceled attributed to layer 0", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	edges := 0
	cancelling := &gnn.Model{Layers: []gnn.Layer{cancelLayer{Layer: m.Layers[0], onEdge: func() { edges++; cancel() }}}}
	_, err = gnn.ForwardContext(ctx, cancelling, g, x, 1)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "layer 0") {
		t.Fatalf("mid-layer: err = %v, want context.Canceled attributed to layer 0", err)
	}
	if edges >= g.NumEdges() {
		t.Fatalf("mid-layer cancellation ran all %d edges", edges)
	}
}

// TestForwardContextMatchesForward pins that the context path is the
// identity when uncancelled: bit-identical outputs.
func TestForwardContextMatchesForward(t *testing.T) {
	m, g, x := forwardFixture(t)
	want, err := gnn.Forward(m, g, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gnn.ForwardContext(context.Background(), m, g, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		if d := got[li].BitDiffs(want[li]); d != 0 {
			t.Fatalf("layer %d: %d elements differ", li, d)
		}
	}
}

// TestForwardShapeErrorsAreTyped pins the ErrBadShape class on mismatched
// inputs, for the executor and the dataflow proof alike.
func TestForwardShapeErrorsAreTyped(t *testing.T) {
	m, g, _ := forwardFixture(t)
	s := MustNew(DefaultConfig())
	for _, bad := range []*tensor.Matrix{
		tensor.NewMatrix(g.NumVertices()+1, 8), // row mismatch
		tensor.NewMatrix(g.NumVertices(), 9),   // col mismatch
	} {
		if _, err := gnn.Forward(m, g, bad); !errors.Is(err, fault.ErrBadShape) {
			t.Errorf("executor, %v: err = %v, want ErrBadShape", bad, err)
		}
		if _, err := s.Forward(m, g, bad); !errors.Is(err, fault.ErrBadShape) {
			t.Errorf("dataflow, %v: err = %v, want ErrBadShape", bad, err)
		}
	}
}

// TestForwardContainsWorkerPanics proves a panic inside a worker's kernel
// chain surfaces as a typed per-layer error instead of killing the process.
func TestForwardContainsWorkerPanics(t *testing.T) {
	_, g, x := forwardFixture(t)
	broken := &gnn.Model{ModelName: "broken", Layers: []gnn.Layer{panicLayer{}}}
	for _, workers := range []int{1, 2} {
		_, err := gnn.ForwardParallel(broken, g, x, workers)
		var pe *fault.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "layer 0") {
			t.Fatalf("workers=%d: err = %v, want layer-attributed *fault.PanicError", workers, err)
		}
	}
}

// cancelLayer wraps a real layer and calls onEdge before every edge, so a
// test can cancel the context from inside the hot loop.
type cancelLayer struct {
	gnn.Layer
	onEdge func()
}

func (l cancelLayer) AccumulateEdge(acc, src, dst, msg []float32, ctx gnn.EdgeContext) {
	l.onEdge()
	l.Layer.AccumulateEdge(acc, src, dst, msg, ctx)
}

// panicLayer is a minimal layer whose aggregation kernel panics, standing in
// for any shape violation deep inside the fused per-edge kernels. The
// embedded nil Layer satisfies the interface; only the methods the forward
// path reaches before the panic are implemented.
type panicLayer struct{ gnn.Layer }

func (panicLayer) Name() string                                   { return "panic" }
func (panicLayer) Work() gnn.LayerWork                            { return gnn.LayerWork{InDim: 8, MsgDim: 4, OutDim: 4} }
func (panicLayer) InDim() int                                     { return 8 }
func (panicLayer) OutDim() int                                    { return 4 }
func (panicLayer) MsgDim() int                                    { return 4 }
func (panicLayer) UpdateScratch() int                             { return 0 }
func (panicLayer) Reduce() gnn.ReduceKind                         { return gnn.ReduceSum }
func (panicLayer) PrepareSources(h *tensor.Matrix) *tensor.Matrix { return h }
func (panicLayer) PrepareDest(h *tensor.Matrix) *tensor.Matrix    { return nil }
func (panicLayer) AccumulateEdge(acc, src, dst, msg []float32, ctx gnn.EdgeContext) {
	panic("kernel shape violation")
}
