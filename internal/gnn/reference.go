package gnn

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// RandomFeatures returns a |V|×dim input feature matrix, deterministically
// seeded. Magnitudes are kept small so multi-layer float32 forward passes
// compare tightly across executors.
func RandomFeatures(g *graph.Graph, dim int, seed int64) *tensor.Matrix {
	return tensor.RandomMatrix(rand.New(rand.NewSource(seed)), g.NumVertices(), dim, 0.5)
}

// Forward runs model m over graph g with input features x (|V|×InDim) and
// returns the per-layer outputs. It is the most direct translation of
// Eq. 1–2 and the one executor every inference path runs on: destination
// vertices fan across GOMAXPROCS workers, which is bit-identical to the
// serial sweep — see ForwardContext.
func Forward(m *Model, g *graph.Graph, x *tensor.Matrix) ([]*tensor.Matrix, error) {
	return ForwardContext(context.Background(), m, g, x, 0)
}

// ForwardParallel is Forward with an explicit worker budget (< 1 selects
// GOMAXPROCS, 1 runs serially).
func ForwardParallel(m *Model, g *graph.Graph, x *tensor.Matrix, workers int) ([]*tensor.Matrix, error) {
	return ForwardContext(context.Background(), m, g, x, workers)
}

// ForwardContext runs the whole model under a context and a worker budget.
// Destination vertices are partitioned across workers and each vertex's
// reduce chain folds its in-edges in the same adjacency order regardless of
// the partition, so the output is bit-identical for every worker count.
//
// Precision comes from the model: layers QuantizeModel gave an int8 weight
// form run the int8 prepare, aggregation and update kernels, all other
// layers run float32. Integer chain sums are order-independent, so int8
// output keeps the same worker-count bit-identity.
//
// Cancellation is honoured at every layer boundary and every ctxCheckRows
// rows inside a layer. A panic inside a worker's kernel chain is contained
// into a layer-attributed *fault.PanicError; shape errors wrap
// fault.ErrBadShape.
func ForwardContext(ctx context.Context, m *Model, g *graph.Graph, x *tensor.Matrix, workers int) ([]*tensor.Matrix, error) {
	outs := make([]*tensor.Matrix, 0, len(m.Layers))
	h := x
	for li := range m.Layers {
		out, err := ForwardLayerContext(ctx, m, li, g, h, nil, workers)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		h = out
	}
	return outs, nil
}

// ForwardLayerContext executes exactly one layer of m — m.Layers[li] — with
// an optional per-vertex degree override. It is the building block of
// sharded serving (internal/shard) and per-layer sampled inference.
//
// degrees supplies the structural degree of each vertex as seen by message
// functions (EdgeContext.SrcDeg) and by the int8 tier's per-source
// coefficients (QSrcCoef). On a shard-local subgraph a halo vertex has no
// local in-edges, so its local in-degree is 0 even though message functions
// must see its global degree — passing the global degrees restores exactly
// the operand stream of an unsharded pass, which is what makes sharded
// output bit-identical to single-process execution. nil selects g's own
// in-degrees, making this one step of ForwardContext.
func ForwardLayerContext(ctx context.Context, m *Model, li int, g *graph.Graph, h *tensor.Matrix, degrees []int32, workers int) (*tensor.Matrix, error) {
	if li < 0 || li >= len(m.Layers) {
		return nil, fmt.Errorf("gnn: layer %d outside model of %d layers: %w", li, len(m.Layers), fault.ErrBadConfig)
	}
	if h.Rows != g.NumVertices() {
		return nil, fmt.Errorf("gnn: features have %d rows, graph has %d vertices: %w", h.Rows, g.NumVertices(), fault.ErrBadShape)
	}
	if degrees != nil && len(degrees) != g.NumVertices() {
		return nil, fmt.Errorf("gnn: %d degree overrides for %d vertices: %w", len(degrees), g.NumVertices(), fault.ErrBadShape)
	}
	st := getExecState()
	defer execPool.Put(st)
	if degrees == nil {
		degrees = st.localDegrees(g)
	}
	return st.forwardLayer(ctx, li, m.Layers[li], g, h, degrees, workers)
}

// ctxCheckRows is how many destination rows a worker runs between context
// checks.
const ctxCheckRows = 64

// execWorker owns one worker goroutine's scratch: buf backs the msg | acc |
// update-scratch windows sized per layer, qs/acc32/swar are the int8 tier's
// update and integer-chain scratch, and err carries the first failure the
// worker hit (collected after the layer's barrier).
type execWorker struct {
	buf               []float32
	msg, acc, scratch []float32
	qs                []int8
	acc32             []int32
	swar              []uint64
	err               error
}

// execState is the recycled per-call state of the executor, pooled so
// repeated calls reuse the degree slice, every worker's scratch and the
// int8 tier's quantized source matrix — the steady-state hot path allocates
// only the per-layer prepared and output matrices.
type execState struct {
	degrees []int32
	workers []execWorker
	// qpsrc holds the current layer's quantized source rows (QAggregator
	// layers only) and qcoefs the per-row source coefficients folded
	// into them.
	qpsrc  *tensor.QSumMatrix
	qcoefs []float32
}

var execPool sync.Pool

func getExecState() *execState {
	if st, ok := execPool.Get().(*execState); ok {
		return st
	}
	return &execState{}
}

// localDegrees fills the state's recycled degree slice from g's in-degrees.
func (st *execState) localDegrees(g *graph.Graph) []int32 {
	n := g.NumVertices()
	if cap(st.degrees) < n {
		st.degrees = make([]int32, n)
	}
	degrees := st.degrees[:n]
	for v := range degrees {
		degrees[v] = int32(g.InDegree(v))
	}
	return degrees
}

// sizeWorkers (re)shapes nw workers' scratch for a layer's accumulator
// width, update scratch, int8 update scratch and integer-chain width.
func (st *execState) sizeWorkers(nw, width, updateScratch, qScratch, qAccWidth int) []execWorker {
	for len(st.workers) < nw {
		st.workers = append(st.workers, execWorker{})
	}
	need := 2*width + updateScratch
	ws := st.workers[:nw]
	for i := range ws {
		w := &ws[i]
		if cap(w.buf) < need {
			w.buf = make([]float32, need)
		}
		buf := w.buf[:need]
		w.msg, w.acc, w.scratch = buf[:width], buf[width:2*width], buf[2*width:]
		if cap(w.qs) < qScratch {
			w.qs = make([]int8, qScratch)
		}
		w.qs = w.qs[:qScratch]
		if cap(w.acc32) < qAccWidth {
			w.acc32 = make([]int32, qAccWidth)
		}
		w.acc32 = w.acc32[:qAccWidth]
		if cap(w.swar) < qAccWidth/4 {
			w.swar = make([]uint64, qAccWidth/4)
		}
		w.swar = w.swar[:qAccWidth/4]
		w.err = nil
	}
	return ws
}

// scaledSum is the unexported capability of float32 layers whose
// AccumulateEdge is exactly acc[j] += edgeCoef(srcDeg, dstDeg)·psrc[j] over
// the whole accumulator, with psrc the prepared source row (gcn's symmetric
// norm; gin's and gs-mean's constant 1, where 1·x == x exactly). The
// executor folds such layers' in-edges through tensor.AxpyChain4; per-edge
// AccumulateEdge stays their layer contract, which core.Forward drives.
type scaledSum interface {
	edgeCoef(srcDeg, dstDeg int) float32
}

// forwardLayer runs one layer with destination vertices fanned across up to
// `workers` goroutines. The hot loop drives the layer's fused AccumulateEdge
// (or, for scaledSum layers, the four-edge chain kernel) and in-place
// UpdateInto kernels (or their int8 forms), so steady state performs no
// per-vertex or per-edge allocation.
func (st *execState) forwardLayer(ctx context.Context, li int, l Layer, g *graph.Graph, h *tensor.Matrix, degrees []int32, workers int) (*tensor.Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gnn: layer %d: %w", li, err)
	}
	if h.Cols != l.InDim() {
		return nil, fmt.Errorf("gnn: layer %d: features have %d cols, layer wants %d: %w", li, h.Cols, l.InDim(), fault.ErrBadShape)
	}
	var qupd QKernels
	if LayerQuantized(l) {
		qupd = l.(QKernels)
	}
	psrc, pdst := PrepareLayerPrecision(l, h, workers, qupd != nil)
	kind := l.Reduce()
	width := kind.AccWidth(l.MsgDim())
	msgDim := l.MsgDim()
	n := g.NumVertices()
	out := tensor.NewMatrix(h.Rows, l.OutDim())

	// Separable-coefficient layers additionally run their reduce chains in
	// integer arithmetic: each source row is pre-multiplied by its QSrcCoef
	// and quantized under one shared scale (once per layer, 4x less memory
	// traffic per edge visit), chains sum raw int8 rows in exact int32, and
	// each vertex dequantizes its chain once with Scale·QDstCoef before the
	// usual finalize/update.
	var qagg QAggregator
	var qpsrc *tensor.QSumMatrix
	if qupd != nil {
		if qa, ok := l.(QAggregator); ok {
			if st.qpsrc == nil {
				st.qpsrc = tensor.NewQSumMatrix(psrc.Rows, psrc.Cols)
			}
			st.qpsrc.Resize(psrc.Rows, psrc.Cols)
			if cap(st.qcoefs) < psrc.Rows {
				st.qcoefs = make([]float32, psrc.Rows)
			}
			coefs := st.qcoefs[:psrc.Rows]
			for v := range coefs {
				coefs[v] = qa.QSrcCoef(int(degrees[v]))
			}
			if err := tensor.ParallelQuantizeScaledInto(st.qpsrc, psrc, coefs, workers); err != nil {
				return nil, fmt.Errorf("gnn: layer %d: quantizing features: %w", li, err)
			}
			qagg, qpsrc = qa, st.qpsrc
		}
	}

	ss, _ := l.(scaledSum)

	nw := tensor.RowWorkers(n, workers)
	qScratch, qAccWidth := 0, 0
	if qupd != nil {
		qScratch = qupd.QUpdateScratch()
	}
	if qagg != nil {
		qAccWidth = qpsrc.Stride // padded, so FlushChain drains whole chunks
	}
	ws := st.sizeWorkers(nw, width, l.UpdateScratch(), qScratch, qAccWidth)

	tensor.ParallelRows(n, nw, func(wid, lo, hi int) {
		wk := &ws[wid]
		if wk.err != nil {
			return
		}
		defer func() {
			if v := recover(); v != nil {
				wk.err = fault.Recovered(v)
			}
		}()
		acc := wk.acc
		for v := lo; v < hi; v++ {
			if (v-lo)%ctxCheckRows == 0 {
				if wk.err = ctx.Err(); wk.err != nil {
					return
				}
			}
			nbrs := g.InNeighbors(v)
			if qagg != nil {
				// Integer reduce chain: the source coefficient is already
				// folded into the quantized rows, the destination
				// coefficient into the single dequantizing multiply.
				acc32 := wk.acc32
				for i := range acc32 {
					acc32[i] = 0
				}
				block := 0
				for _, u := range nbrs {
					tensor.AccRowChain(wk.swar, qpsrc.Row(int(u)))
					block++
					if block == tensor.ChainBlockEdges {
						tensor.FlushChain(acc32, wk.swar, block)
						block = 0
					}
				}
				tensor.FlushChain(acc32, wk.swar, block)
				c := qpsrc.Scale * qagg.QDstCoef(len(nbrs))
				for i := range acc {
					acc[i] = c * float32(acc32[i])
				}
			} else {
				for i := range acc {
					acc[i] = 0
				}
				if ss != nil {
					// In-edges fold four at a time, in CSR order, through
					// register-resident partial sums: per element the same
					// additions in the same order as one AccumulateEdge
					// per edge.
					dstDeg := len(nbrs)
					rest := nbrs
					for ; len(rest) >= 4; rest = rest[4:] {
						u0, u1, u2, u3 := int(rest[0]), int(rest[1]), int(rest[2]), int(rest[3])
						tensor.AxpyChain4(acc,
							ss.edgeCoef(int(degrees[u0]), dstDeg), ss.edgeCoef(int(degrees[u1]), dstDeg),
							ss.edgeCoef(int(degrees[u2]), dstDeg), ss.edgeCoef(int(degrees[u3]), dstDeg),
							psrc.Row(u0), psrc.Row(u1), psrc.Row(u2), psrc.Row(u3))
					}
					for _, u := range rest {
						tensor.Axpy(ss.edgeCoef(int(degrees[u]), dstDeg), psrc.Row(int(u)), acc)
					}
				} else {
					var pdstRow []float32
					if pdst != nil {
						pdstRow = pdst.Row(v)
					}
					for _, u := range nbrs {
						ectx := EdgeContext{Src: int(u), Dst: v, SrcDeg: int(degrees[u]), DstDeg: len(nbrs)}
						l.AccumulateEdge(acc, psrc.Row(int(u)), pdstRow, wk.msg, ectx)
					}
				}
			}
			agg := kind.Finalize(acc, msgDim, len(nbrs))
			if qupd != nil {
				qupd.QUpdateInto(out.Row(v), h.Row(v), agg, wk.scratch, wk.qs)
			} else {
				l.UpdateInto(out.Row(v), h.Row(v), agg, wk.scratch)
			}
		}
	})
	for i := range ws {
		if ws[i].err != nil {
			return nil, fmt.Errorf("gnn: layer %d: %w", li, ws[i].err)
		}
	}
	return out, nil
}
