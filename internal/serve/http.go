package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/fault"
	"scale/internal/fault/httpfault"
	"scale/internal/graph"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// inferBody is the POST /v1/infer request payload.
type inferBody struct {
	// Model and Dims select the session (see scale.Session).
	Model string `json:"model"`
	Dims  []int  `json:"dims"`
	// NumVertices, Edges, Features describe the graph (see
	// scale.InferRequest).
	NumVertices int         `json:"num_vertices"`
	Edges       [][2]int    `json:"edges"`
	Features    [][]float32 `json:"features"`
	// TimeoutMS is the per-request deadline; it maps to context
	// cancellation of the gnn executor. 0 means no extra deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Precision selects the execution tier: "" (the server's default
	// precision), "fp32", or "int8". Unknown values are 400 bad_input;
	// check replaces "" with the tier that runs.
	Precision string `json:"precision,omitempty"`
	// Graph selects the graph source: "" runs the request-carried
	// edges/features; "dynamic" runs the server's mutable graph
	// (Config.Dynamic) and ignores NumVertices/Edges/Features.
	Graph string `json:"graph,omitempty"`
	// SampleFanout > 0 enables GraphSAGE-style fixed-fanout sampled
	// inference: each layer aggregates over at most SampleFanout
	// in-neighbors per vertex, drawn deterministically from SampleSeed.
	// Responses are byte-identical across worker counts and replays of
	// the same (seed, fanout) pair.
	SampleFanout int    `json:"sample_fanout,omitempty"`
	SampleSeed   uint64 `json:"sample_seed,omitempty"`

	// feat is the backing array of Features in a body decodeInferBody
	// returned: the rows are consecutive subslices of it, so once
	// Server.check has found each is Dims[0] wide, feat is the
	// NumVertices × Dims[0] feature matrix as it stands.
	feat []float32
}

// inferResponse is the POST /v1/infer success payload.
type inferResponse struct {
	Model      string      `json:"model"`
	Precision  string      `json:"precision"`
	Embeddings [][]float32 `json:"embeddings"`
}

// simulateResponse is the POST /v1/simulate success payload: the timing
// report, plus — when the server fronts a shard pool — the NoC-costed
// cross-shard halo-exchange estimate for running that same workload sharded
// at the pool's shard count and topology.
type simulateResponse struct {
	scale.Report
	Sharding *shard.CommEstimate `json:"sharding,omitempty"`
}

// simulateBody is the POST /v1/simulate request payload. Accel selects the
// accelerator to simulate on: empty or "scale" runs the shared SCALE
// simulator; any internal/baseline backend name (awb-gcn, gcnax, regnn,
// flowgnn, i-gcn, systolic) runs that backend at the simulator's MAC budget.
// Unknown names map to 400 bad_input.
type simulateBody struct {
	Model   string `json:"model"`
	Dataset string `json:"dataset"`
	Accel   string `json:"accel,omitempty"`
}

// errorResponse is every non-2xx payload, the same on both tiers.
type errorResponse = httpfault.Body

// healthResponse is the GET /healthz payload. The shard fields only appear
// on a pool-fronting server: Degraded means every worker's circuit breaker
// is open and infer requests are being served by the local single-process
// fallback (fp32 results stay bit-identical by construction).
type healthResponse struct {
	Status           string  `json:"status"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Sessions         int     `json:"sessions"`
	QueueInUse       int     `json:"queue_in_use"`
	QueueDepth       int     `json:"queue_depth"`
	ShardWorkersLive *int    `json:"shard_workers_live,omitempty"`
	Degraded         *bool   `json:"degraded,omitempty"`
}

// classify is httpfault.Classify plus the front's one extra case: a
// mid-compaction dynamic graph answers 409 (retryable — the batch itself may
// be fine). It ranks below panics, deadlines and drains, above input
// sentinels.
func classify(err error) (int, string) {
	code, kind := httpfault.Classify(err)
	if (kind == "bad_input" || kind == "internal") && errors.Is(err, dyn.ErrCompacting) {
		return http.StatusConflict, "compacting"
	}
	return code, kind
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg, kind string) {
	httpfault.Write(w, code, msg, kind, s.cfg.RetryAfter)
}

// writeMapped answers err with classify's status and kind.
func (s *Server) writeMapped(w http.ResponseWriter, err error) {
	code, kind := classify(err)
	s.writeError(w, code, err.Error(), kind)
}

// statusRecorder captures the status code a handler sent, for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps an endpoint with latency/status accounting and a panic
// barrier: a panic inside the handler itself (not just the backend) is
// contained into a 500 — the serving process never dies for one request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		err := fault.Safely(func() error {
			h(rec, r)
			return nil
		})
		if err != nil {
			s.metrics.PanicsContained.Add(1)
			if !rec.wrote {
				rec.code = http.StatusInternalServerError
				s.writeError(rec, http.StatusInternalServerError, err.Error(), "panic")
			}
		}
		s.metrics.ObserveRequest(endpoint, rec.code, time.Since(start))
	}
}

// admit wraps an API endpoint in the admission steps every one shares: POST
// only (405), refused while draining (503 + Retry-After), and one slot of
// the bounded admission queue or shed load (429 + Retry-After).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.writeError(w, http.StatusMethodNotAllowed, "POST required", "usage")
			return
		}
		if !s.begin() {
			s.writeMapped(w, httpfault.ErrDraining)
			return
		}
		defer s.end()
		if !s.queue.tryAcquire() {
			s.metrics.QueueRejections.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "admission queue full", "over_capacity")
			return
		}
		defer s.queue.release()
		h(w, r)
	}
}

// handleInfer serves POST /v1/infer: decode the body, check it once, route
// it (infer), and answer. Every route sees a body that already passed the
// same checks, so a malformed body gets the same 400 whichever executor it
// would have reached.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var body inferBody
	raw, err := io.ReadAll(r.Body)
	if err == nil {
		body, err = decodeInferBody(raw)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
		return
	}
	if err := s.check(&body); err != nil {
		s.writeMapped(w, err)
		return
	}
	ctx := r.Context()
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	rows, err := s.infer(ctx, &body)
	if err != nil {
		s.writeMapped(w, err)
		return
	}
	httpfault.WriteJSON(w, http.StatusOK, inferResponse{Model: body.Model, Precision: body.Precision, Embeddings: rows})
}

// badRequest is a 400 bad_input answer whose text is the whole message.
type badRequest string

func (e badRequest) Error() string        { return string(e) }
func (e badRequest) Is(target error) bool { return target == fault.ErrBadConfig }

// check is every test a body must pass before it is routed: the vertex cap,
// the graph source, a request-carried graph's shape
// (scale.InferRequest.Validate), and the session it names
// (scale.ValidateSession: model, dims and precision, with the refusal a
// session would give), so no route partitions or allocates for a body that
// would fail. It also settles the precision — the body's, else the server
// default, else fp32 — so equivalent requests share one session.
func (s *Server) check(body *inferBody) error {
	if body.Precision == "" {
		body.Precision = s.cfg.DefaultPrecision
	}
	if body.Precision == "" {
		body.Precision = "fp32"
	}
	if body.NumVertices > s.cfg.MaxVertices {
		return badRequest(fmt.Sprintf("request has %d vertices, server caps at %d", body.NumVertices, s.cfg.MaxVertices))
	}
	switch body.Graph {
	case "":
	case "dynamic":
		if s.cfg.Dynamic == nil {
			return badRequest("server has no dynamic graph (-dynamic)")
		}
	default:
		return badRequest(fmt.Sprintf("unknown graph source %q", body.Graph))
	}
	if body.Graph == "" && len(body.Dims) >= 2 {
		req := scale.InferRequest{NumVertices: body.NumVertices, Edges: body.Edges, Features: body.Features}
		if err := req.Validate(body.Dims[0]); err != nil {
			return err
		}
	}
	return scale.ValidateSession(body.Model, body.Dims, body.Precision)
}

// infer runs one checked body and returns its final-layer embeddings. The
// routing policy, in order:
//
//   - A plain request-carried graph (no sampling) with at least
//     ShardMinVertices vertices runs on the shard tier. When the pool is
//     degraded (every breaker open), or the pass fails for an infrastructure
//     reason (fallbackEligible), it runs locally instead, counted in
//     DegradedRequests; fp32 answers are bit-identical either way.
//   - Any other plain graph joins the session's micro-batcher.
//   - Dynamic-graph and sampled bodies run directly on the session
//     (InferGraph / InferSampled): the dynamic vertex set is the server's,
//     and sampling seeds bind to request-local vertex ids, so neither may be
//     shifted into a disjoint-union batch.
//
// The session ref is held until the answer is in.
func (s *Server) infer(ctx context.Context, body *inferBody) ([][]float32, error) {
	plain := body.Graph == "" && body.SampleFanout == 0
	if plain && s.cfg.ShardPool != nil && body.NumVertices >= s.cfg.ShardMinVertices {
		if !s.cfg.ShardPool.Degraded() {
			g, x := body.graphAndFeatures()
			out, _, err := s.cfg.ShardPool.Run(ctx, shard.SessionSpec{Model: body.Model, Dims: body.Dims, Precision: body.Precision}, g, x)
			if err == nil {
				rows := make([][]float32, out.Rows)
				for v := range rows {
					rows[v] = out.Row(v)
				}
				return rows, nil
			}
			if !fallbackEligible(err) {
				return nil, err
			}
		}
		s.metrics.DegradedRequests.Add(1)
	}

	entry, err := s.session(body.Model, body.Dims, body.Precision)
	if err != nil {
		return nil, err
	}
	defer entry.refs.Done()
	if plain {
		req := scale.InferRequest{NumVertices: body.NumVertices, Edges: body.Edges, Features: body.Features}
		p := &pending{req: req, ctx: ctx, done: make(chan batchResult, 1)}
		entry.b.submit(p)
		select {
		case res := <-p.done:
			return res.rows, res.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	var g *graph.Graph
	var x *tensor.Matrix
	if body.Graph == "dynamic" {
		s.metrics.DynRequests.Add(1)
		if g, x, err = s.cfg.Dynamic.View(); err != nil {
			return nil, err
		}
	} else {
		g, x = body.graphAndFeatures()
	}
	if body.SampleFanout == 0 {
		return entry.sess.InferGraph(ctx, g, x, s.cfg.SampleWorkers)
	}
	s.metrics.SampledRequests.Add(1)
	sampler := dyn.Sampler{Fanout: body.SampleFanout, Seed: body.SampleSeed}
	layers, err := sampler.Sample(g, entry.sess.NumLayers())
	if err != nil {
		return nil, err
	}
	return entry.sess.InferSampled(ctx, layers, x, s.cfg.SampleWorkers)
}

// fallbackEligible decides whether a failed sharded pass may be retried
// locally: infrastructure failures (workers unreachable, every candidate
// exhausted) are; the caller's own problems are not — bad input must keep
// its 400, a spent deadline its 408, and a contained panic its 500 (the
// panic would likely reproduce locally).
func fallbackEligible(err error) bool {
	_, kind := httpfault.Classify(err)
	return kind == "internal" || kind == "draining"
}

// graphAndFeatures builds a checked body's graph and adopts its feature
// rows' backing array as the input matrix, with no per-row copy.
func (body *inferBody) graphAndFeatures() (*graph.Graph, *tensor.Matrix) {
	b := graph.NewBuilder(body.NumVertices)
	for _, e := range body.Edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build("user"), &tensor.Matrix{Rows: body.NumVertices, Cols: body.Dims[0], Data: body.feat}
}

// handleSimulate serves POST /v1/simulate: one timing-model run of (model,
// dataset) on the shared simulator, reported as a scale.Report.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var body simulateBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad JSON body: "+err.Error(), "bad_input")
		return
	}
	report, err := s.cfg.Sim.SimulateOn(body.Accel, body.Model, body.Dataset)
	if err != nil {
		s.writeMapped(w, err)
		return
	}
	resp := simulateResponse{Report: report}
	if s.cfg.ShardPool != nil {
		if est, err := s.shardEstimate(body.Dataset, report.Cycles); err == nil {
			resp.Sharding = est
		}
		// Estimate failures (e.g. a dataset with no generator) degrade to
		// the plain report rather than failing the simulate call.
	}
	httpfault.WriteJSON(w, http.StatusOK, resp)
}

// shardEstimate partitions the dataset's generated graph at the pool's shard
// count and costs the halo exchange against the simulated single-device
// cycle count. Feature rows move at fp32 width — the sharded data plane
// exchanges float32 activations in both precision tiers.
func (s *Server) shardEstimate(dataset string, cycles int64) (*shard.CommEstimate, error) {
	d, err := graph.ByName(dataset)
	if err != nil {
		return nil, err
	}
	plan, err := shard.PartitionGraph(d.Build(), s.cfg.ShardPool.Parts())
	if err != nil {
		return nil, err
	}
	return shard.EstimateComm(plan, d.FeatureDims, 4, s.cfg.ShardPool.Topology(), cycles)
}

// handleHealthz answers 200 while serving and 503 while draining, so load
// balancers stop routing before shutdown completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	resp := healthResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Sessions:      s.LiveSessions(),
		QueueInUse:    s.queue.inUse(),
		QueueDepth:    s.queue.depth(),
	}
	if s.cfg.ShardPool != nil {
		live := s.cfg.ShardPool.LiveWorkers()
		degraded := s.cfg.ShardPool.Degraded()
		resp.ShardWorkersLive = &live
		resp.Degraded = &degraded
		if degraded {
			// Still 200: the node serves every request via the local
			// fallback; load balancers should keep routing here.
			status = "degraded"
		}
	}
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	resp.Status = status
	httpfault.WriteJSON(w, code, resp)
}
