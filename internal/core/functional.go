package core

import (
	"fmt"

	"scale/internal/fault"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/sched"
	"scale/internal/tensor"
)

// Forward is the serial fp32 dataflow proof: it executes model m over a
// materialized graph following exactly the schedule and mapping the timing
// engine models — vertices are batched, scheduled into tasks and task
// groups (Algorithm 1), each task's aggregations run as linear reduce
// chains in mapping order, and finalized results feed the update engines.
//
// The schedule decides when each reduce chain runs, never what it computes:
// every vertex folds its in-edges in CSR order whichever ring runs it, so
// the output is bit-identical to the gnn executor that serves inference.
// The core tests and cmd/scale-verify pin that equality; nothing serves
// through this path.
func (s *SCALE) Forward(m *gnn.Model, g *graph.Graph, x *tensor.Matrix) ([]*tensor.Matrix, error) {
	if x.Rows != g.NumVertices() {
		return nil, fmt.Errorf("core: features have %d rows, graph has %d vertices: %w", x.Rows, g.NumVertices(), fault.ErrBadShape)
	}
	if x.Cols != m.InDim() {
		return nil, fmt.Errorf("core: features have %d cols, model wants %d: %w", x.Cols, m.InDim(), fault.ErrBadShape)
	}
	degrees := g.Degrees()
	h := x
	outs := make([]*tensor.Matrix, 0, len(m.Layers))
	for li, layer := range m.Layers {
		out, err := s.forwardLayer(layer, g, degrees, h)
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", li, err)
		}
		outs = append(outs, out)
		h = out
	}
	return outs, nil
}

func (s *SCALE) forwardLayer(layer gnn.Layer, g *graph.Graph, degrees []int32, h *tensor.Matrix) (*tensor.Matrix, error) {
	cfg := s.cfg
	w := layer.Work()
	ringSize := cfg.RingSizeFor(w.WeightBytes, w.InDim, w.OutDim)
	nRings := cfg.NumRings(ringSize)
	scheduler, err := sched.NewScheduler(
		sched.Config{NumTasks: nRings * ringSize, NumGroups: nRings, Policy: cfg.Policy}, true)
	if err != nil {
		return nil, err
	}

	psrc, pdst := gnn.PrepareLayer(layer, h, 1)
	kind := layer.Reduce()
	msgDim := layer.MsgDim()
	width := kind.AccWidth(msgDim)
	buf := make([]float32, 2*width+layer.UpdateScratch())
	msg, acc, scratch := buf[:width], buf[width:2*width], buf[2*width:]
	out := tensor.NewMatrix(h.Rows, layer.OutDim())

	n := g.NumVertices()
	seen := make([]bool, n)
	verts := sched.AllVertices(n)
	batch := cfg.EffectiveBatchSize()
	for start := 0; start < n; start += batch {
		groups, err := scheduler.Schedule(degrees, verts[start:min(start+batch, n)])
		if err != nil {
			return nil, err
		}
		// Rings run in mapping order; within a ring, each task's vertices
		// stream their in-edges hop by hop through the reduce chain.
		for _, group := range groups {
			for _, task := range group.Tasks {
				for _, v := range task.Vertices {
					if seen[v] {
						return nil, fmt.Errorf("vertex %d scheduled twice", v)
					}
					seen[v] = true
					nbrs := g.InNeighbors(int(v))
					for i := range acc {
						acc[i] = 0
					}
					var pdstRow []float32
					if pdst != nil {
						pdstRow = pdst.Row(int(v))
					}
					for _, u := range nbrs {
						ctx := gnn.EdgeContext{Src: int(u), Dst: int(v), SrcDeg: int(degrees[u]), DstDeg: len(nbrs)}
						layer.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, msg, ctx)
					}
					agg := kind.Finalize(acc, msgDim, len(nbrs))
					layer.UpdateInto(out.Row(int(v)), h.Row(int(v)), agg, scratch)
				}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("vertex %d never scheduled", v)
		}
	}
	return out, nil
}
