package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/fault/httpfault"
	"scale/internal/obs"
)

// registerDynMetrics adds the dynamic graph's gauges and counters to r,
// each read from g.Stats() when the page is rendered, including the
// schedule delta-invalidation hit rate (reused / refreshed entries; the
// dyn-smoke harness asserts it stays above zero under mutate+infer load).
func registerDynMetrics(r *obs.Registry, g *dyn.Graph) {
	gauge := func(name, help string, f func(dyn.Stats) float64) {
		r.GaugeFunc(name, help, func() float64 { return f(g.Stats()) })
	}
	counter := func(name, help string, f func(dyn.Stats) int64) {
		r.CounterFunc(name, help, func() int64 { return f(g.Stats()) })
	}
	gauge("scale_dyn_vertices", "Live vertices in the dynamic graph.", func(st dyn.Stats) float64 { return float64(st.Vertices) })
	gauge("scale_dyn_edges", "Live edges in the dynamic graph (base + overlay).", func(st dyn.Stats) float64 { return float64(st.Edges) })
	gauge("scale_dyn_delta_fraction", "Overlay edge ops as a fraction of base edges.", func(st dyn.Stats) float64 { return st.DeltaFrac })
	gauge("scale_dyn_delta_added", "Overlay edge inserts awaiting compaction.", func(st dyn.Stats) float64 { return float64(st.DeltaAdded) })
	gauge("scale_dyn_delta_removed", "Overlay edge removals awaiting compaction.", func(st dyn.Stats) float64 { return float64(st.DeltaRemoved) })
	counter("scale_dyn_mutations_total", "Individual graph deltas applied.", func(st dyn.Stats) int64 { return st.Mutations })
	counter("scale_dyn_mutation_batches_total", "Atomic mutation batches applied.", func(st dyn.Stats) int64 { return st.Batches })
	counter("scale_dyn_compactions_total", "Overlay compactions into the base CSR.", func(st dyn.Stats) int64 { return st.Compactions })
	counter("scale_dyn_sched_reused_total", "Schedule-table entries served from cache across refreshes.", func(st dyn.Stats) int64 { return st.SchedReused })
	counter("scale_dyn_sched_recomputed_total", "Schedule-table entries recomputed by delta-invalidation.", func(st dyn.Stats) int64 { return st.SchedRecomputed })
	gauge("scale_dyn_sched_invalidation_hit_rate", "Fraction of schedule-table refresh entries reused rather than recomputed.", func(st dyn.Stats) float64 {
		if total := st.SchedReused + st.SchedRecomputed; total > 0 {
			return float64(st.SchedReused) / float64(total)
		}
		return 0
	})
}

// mutateOp is one JSON-encoded mutation of the POST /v1/mutate body.
type mutateOp struct {
	Op       string    `json:"op"` // add_edge, remove_edge, add_vertex
	Src      int32     `json:"src,omitempty"`
	Dst      int32     `json:"dst,omitempty"`
	Features []float32 `json:"features,omitempty"`
}

// mutateBody is the POST /v1/mutate JSON payload. The endpoint also accepts
// the binary batched-delta wire format (dyn.EncodeBatch) under
// Content-Type: application/octet-stream.
type mutateBody struct {
	Ops []mutateOp `json:"ops"`
}

// mutateResponse is the POST /v1/mutate success payload: the applied op
// count plus the graph's post-batch shape, so streaming writers can track
// growth without polling /metrics.
type mutateResponse struct {
	Applied      int     `json:"applied"`
	Vertices     int     `json:"vertices"`
	Edges        int64   `json:"edges"`
	DeltaAdded   int64   `json:"delta_added"`
	DeltaRemoved int64   `json:"delta_removed"`
	DeltaFrac    float64 `json:"delta_fraction"`
	Compactions  int64   `json:"compactions"`
}

// decodeMutateJSON maps the JSON op list onto a dyn.Batch, rejecting
// unknown verbs with the same typed sentinel as the binary decoder.
func decodeMutateJSON(body mutateBody) (dyn.Batch, error) {
	b := dyn.Batch{Ops: make([]dyn.Mutation, 0, len(body.Ops))}
	for i, op := range body.Ops {
		m := dyn.Mutation{Src: op.Src, Dst: op.Dst, Features: op.Features}
		switch op.Op {
		case "add_edge":
			m.Op = dyn.OpAddEdge
		case "remove_edge":
			m.Op = dyn.OpRemoveEdge
		case "add_vertex":
			m.Op = dyn.OpAddVertex
		default:
			return dyn.Batch{}, fmt.Errorf("serve: op %d: unknown mutation op %q: %w", i, op.Op, fault.ErrBadGraph)
		}
		b.Ops = append(b.Ops, m)
	}
	return b, nil
}

// handleMutate serves POST /v1/mutate: one atomic batch of graph deltas
// against the server's dynamic graph. Malformed batches are typed 400s
// (fault sentinels, decoded-before-allocated), a mid-compaction graph
// answers 409 with Retry-After, and a successful batch reports the new
// graph shape.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Dynamic == nil {
		s.writeError(w, http.StatusBadRequest, "server has no dynamic graph (-dynamic)", "bad_input")
		return
	}

	var batch dyn.Batch
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/octet-stream") {
		var err error
		if batch, err = dyn.DecodeBatch(r.Body); err != nil {
			s.writeMapped(w, err)
			return
		}
	} else {
		var body mutateBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
			return
		}
		var err error
		if batch, err = decodeMutateJSON(body); err != nil {
			s.writeMapped(w, err)
			return
		}
	}

	if err := s.cfg.Dynamic.Apply(batch); err != nil {
		s.metrics.MutationsRejected.Add(1)
		s.writeMapped(w, err)
		return
	}
	s.metrics.MutationBatches.Add(1)
	s.metrics.MutationOps.Add(int64(len(batch.Ops)))
	st := s.cfg.Dynamic.Stats()
	httpfault.WriteJSON(w, http.StatusOK, mutateResponse{
		Applied:      len(batch.Ops),
		Vertices:     st.Vertices,
		Edges:        st.Edges,
		DeltaAdded:   st.DeltaAdded,
		DeltaRemoved: st.DeltaRemoved,
		DeltaFrac:    st.DeltaFrac,
		Compactions:  st.Compactions,
	})
}
