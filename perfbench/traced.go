package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/noc"
	"scale/internal/serve"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; a layer the workload does not reach reports 0.
var perLayer = []metricSpec{
	{"serve.self_ms", "ms", "lower"},
	{"serve.batch_wait_ms", "ms", "lower"},
	{"serve.batch_size", "count", "higher"},
	{"serve.rejected", "ratio", "lower"},
	{"session.infer_batch_ms", "ms", "lower"},
	{"session.allocs_per_req", "count", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"shard.partition_ms", "ms", "lower"},
	{"shard.pass_ms", "ms", "lower"},
	{"shard.front_self_ms", "ms", "lower"},
	{"shard.worker_ms", "ms", "lower"},
	{"shard.wire_bytes_out", "B", "lower"},
	{"shard.wire_bytes_in", "B", "lower"},
	{"shard.halo_bytes", "B", "lower"},
	{"shard.halo_bytes_model", "B", "lower"},
	{"shard.allocs_per_pass", "count", "lower"},
	{"shard.alloc_bytes_per_pass", "B", "lower"},
	{"shard.retries", "count", "lower"},
	{"forward.l0.prepare_ms", "ms", "lower"},
	{"forward.l1.prepare_ms", "ms", "lower"},
	{"forward.l0.ms", "ms", "lower"},
	{"forward.l1.ms", "ms", "lower"},
	{"forward.ns_per_op", "ns", "lower"},
	{"dyn.apply_us", "us", "lower"},
	{"dyn.sched_hit_rate", "ratio", "higher"},
	{"dyn.compact_ms", "ms", "lower"},
	{"dyn.conflicts", "ratio", "lower"},
	{"dyn.view_ms", "ms", "lower"},
	{"dyn.sample_ms", "ms", "lower"},
	{"dyn.infer_ms", "ms", "lower"},
	{"sim.scale_ms.cora", "ms", "lower"},
	{"sim.scale_ms.citeseer", "ms", "lower"},
	{"sim.scale_ms.pubmed", "ms", "lower"},
	{"sim.scale_ms.nell", "ms", "lower"},
	{"sim.scale_ms.reddit", "ms", "lower"},
	{"sim.baseline_ms", "ms", "lower"},
	{"sim.host_ns_per_kcycle", "ns", "lower"},
	{"sim.profile_ms", "ms", "lower"},
	{"sim.stats_digest", "hash", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// inproc is the served deployment rebuilt inside this process: the front
// serve.Server with its Backend hook, a shard pool over two shard.Workers on
// loopback, and the dynamic graph scale-serve builds for "-dynamic cora".
// With a tracer, the Backend hook and the worker handlers record spans.
type inproc struct {
	srv     *serve.Server
	pool    *shard.Pool
	workers []*shard.Worker
	hs      []*httptest.Server
	probes  []*workerProbe

	tr       *tracer
	inflight inflight
	keyIx    map[uint64]int
	mu       sync.Mutex
	carried  map[int64]span // request id → the Backend span that ran it
	sizes    []float64      // requests per Backend call
}

func newInproc(tr *tracer, inputs []graphInput) (*inproc, error) {
	env := &inproc{tr: tr, carried: map[int64]span{}, keyIx: map[uint64]int{}, inflight: inflight{m: map[int][]int64{}}}
	for i, in := range inputs {
		env.keyIx[requestKey(in.n, in.edges, in.feats)] = i
	}
	var urls []string
	for i := 0; i < 2; i++ {
		sim, err := newSim()
		if err != nil {
			return nil, err
		}
		wk := shard.NewWorker(shard.WorkerConfig{Sim: sim})
		var h http.Handler = wk.Handler()
		if tr != nil {
			p := &workerProbe{h: h, tr: tr}
			env.probes = append(env.probes, p)
			h = p
		}
		hs := httptest.NewServer(h)
		env.workers = append(env.workers, wk)
		env.hs = append(env.hs, hs)
		urls = append(urls, hs.URL)
	}
	// The same pool settings scale-serve's flag defaults give.
	pool, err := shard.NewPool(shard.PoolConfig{
		Workers: urls, Topology: noc.Ring, ProbeInterval: 2 * time.Second,
		BreakerThreshold: 3, DownFor: time.Second, MaxRetries: 3,
	})
	if err != nil {
		env.close()
		return nil, err
	}
	pool.StartProber()
	env.pool = pool
	base, x, err := dynBase()
	if err != nil {
		env.close()
		return nil, err
	}
	dg, err := dyn.New(base, x, dyn.Config{CompactThreshold: 0.25})
	if err != nil {
		env.close()
		return nil, err
	}
	sim, err := newSim()
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv = serve.New(serve.Config{
		Sim: sim, BatchWindow: 2 * time.Millisecond, MaxBatch: 16, QueueDepth: 64, MaxSessions: 8,
		ShardPool: pool, ShardMinVertices: 256, Dynamic: dg, Backend: env.backend,
	})
	return env, nil
}

// backend is the Config.Backend hook: the default batch executor, timed.
func (env *inproc) backend(ctx context.Context, sess *scale.Session, reqs []scale.InferRequest) ([][][]float32, error) {
	sp := env.tr.begin("serve.backend", 0, -1)
	out, err := sess.InferBatch(ctx, reqs)
	sp = env.tr.end(sp)
	if env.tr != nil {
		env.mu.Lock()
		env.sizes = append(env.sizes, float64(len(reqs)))
		for _, r := range reqs {
			if ix, ok := env.keyIx[requestKey(r.NumVertices, r.Edges, r.Features)]; ok {
				if id, ok := env.inflight.oldest(ix); ok {
					env.carried[id] = sp
				}
			}
		}
		env.mu.Unlock()
	}
	return out, err
}

func (env *inproc) close() {
	if env.srv != nil {
		env.srv.BeginDrain()
		env.srv.Close()
	}
	if env.pool != nil {
		env.pool.Close()
	}
	for _, hs := range env.hs {
		hs.Close()
	}
	for _, w := range env.workers {
		w.Close()
	}
}

// sender returns an in-process sender; with a tracer it records one
// serve.handler span per request.
func (env *inproc) sender() sender {
	s := &handlerSender{h: env.srv.Handler()}
	if env.tr != nil {
		s.around = func(o *op, call func()) {
			sp := env.tr.begin("serve.handler", 0, o.id)
			if o.poolIx >= 0 {
				env.inflight.add(o.poolIx, o.id)
			}
			call()
			if o.poolIx >= 0 {
				env.inflight.remove(o.poolIx, o.id)
			}
			env.tr.end(sp)
		}
	}
	return s
}

// inflight maps a generated input to the requests carrying it that are
// inside the handler now, so a Backend call can name its requests.
type inflight struct {
	mu sync.Mutex
	m  map[int][]int64
}

func (f *inflight) add(ix int, id int64) {
	f.mu.Lock()
	f.m[ix] = append(f.m[ix], id)
	f.mu.Unlock()
}

func (f *inflight) remove(ix int, id int64) {
	f.mu.Lock()
	ids := f.m[ix]
	for i, x := range ids {
		if x == id {
			f.m[ix] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

func (f *inflight) oldest(ix int) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ids := f.m[ix]; len(ids) > 0 {
		return ids[0], true
	}
	return 0, false
}

// requestKey fingerprints a request by its size, leading edges and first
// feature row — enough to tell the generated inputs apart.
func requestKey(n int, edges [][2]int, feats [][]float32) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(n))
	put(uint64(len(edges)))
	for i := 0; i < len(edges) && i < 8; i++ {
		put(uint64(edges[i][0])<<32 | uint64(edges[i][1]))
	}
	if len(feats) > 0 {
		for _, f := range feats[0] {
			put(uint64(math.Float32bits(f)))
		}
	}
	return h.Sum64()
}

// workerProbe wraps a shard worker's handler: it counts data-plane bytes
// each way and the halo rows inside layer calls, and records a
// shard.worker span under the pass span the benchmark has open.
type workerProbe struct {
	h       http.Handler
	tr      *tracer
	pass    atomic.Int64
	in, out atomic.Int64
	halo    atomic.Int64
}

func (p *workerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard/load" && r.URL.Path != "/v1/shard/layer" && r.URL.Path != "/v1/shard/finish" {
		p.h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.in.Add(int64(len(body)))
	if r.URL.Path == "/v1/shard/layer" {
		if q, err := shard.DecodeLayer(bytes.NewReader(body)); err == nil {
			p.halo.Add(int64(len(q.HaloRows)) * 4)
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w}
	sp := p.tr.begin("shard.worker", p.pass.Load(), -1)
	p.h.ServeHTTP(cw, r)
	p.tr.end(sp)
	p.out.Add(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// replay offers the workload's schedule to env's handler in-process.
func replay(env *inproc, w *workload, seconds float64) []result {
	start := time.Now()
	if w.closed != nil {
		ss := make([]sender, len(w.closed))
		for i := range ss {
			ss[i] = env.sender()
		}
		return runClosed(start, w.closed, ss, time.Duration(seconds*float64(time.Second)))
	}
	streams := make([]stream, len(w.open))
	for i, st := range w.open {
		ss := make([]sender, st.conns)
		for j := range ss {
			ss[j] = env.sender()
		}
		streams[i] = stream{ops: st.ops, at: st.at, senders: ss}
	}
	return runOpen(start, streams)
}

// meanService is the mean time ops spent inside the handler.
func meanService(rs []result) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, ms(r.done-r.sent))
	}
	return mean(xs)
}

func runTraced(name string, seed int64, seconds float64, outDir string) (*report, error) {
	sim, err := newSim()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	w, err := buildWorkload(name, seed, seconds, sim, tr)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}

	// Pass A untraced, pass B traced, over fresh deployments.
	envA, err := newInproc(nil, w.small)
	if err != nil {
		return nil, err
	}
	resA := replay(envA, w, seconds)
	envA.close()
	envB, err := newInproc(tr, w.small)
	if err != nil {
		return nil, err
	}
	defer envB.close()
	resB := replay(envB, w, seconds)
	if a := meanService(resA); a > 0 {
		vals["trace.overhead_pct"] = (meanService(resB) - a) / a * 100
	}
	envB.serveMetrics(resB, vals)

	var checks []result
	switch name {
	case "infer-small":
		err = smallLayers(sim, w, vals)
	case "infer-reddit-sharded":
		checks, err = redditLayers(sim, envB, tr, w, vals)
	case "dynamic-rw":
		err = dynLayers(sim, tr, w, vals)
	case "simulate-sweep":
		err = simLayers(tr, w, vals)
	}
	if err != nil {
		return nil, err
	}
	m := envB.pool.Metrics()
	retries := m.Retries.Load()
	for _, hs := range envB.hs {
		if b := envB.pool.Breaker(hs.URL); b != nil {
			retries += b.Trips()
		}
	}
	vals["shard.retries"] = float64(retries)

	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}

	all := append(append(resA, resB...), checks...)
	rep := &report{Correct: true, Attempted: len(all), Metrics: map[string]metric{}}
	for _, r := range all {
		if !r.ok() {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", r.op.id, r.err)
		}
		if r.mismatch() {
			rep.Correct = false
		}
	}
	for _, pl := range perLayer {
		rep.Metrics[pl.name] = metric{vals[pl.name], pl.unit}
	}
	fmt.Fprintf(os.Stderr, "%s traced seed=%d: %d ops replayed, %d failed\n", name, seed, rep.Attempted, rep.Failed)
	return rep, nil
}

// serveMetrics derives the serve and session layer metrics from pass B.
func (env *inproc) serveMetrics(rs []result, vals map[string]float64) {
	var self, wait, backend []float64
	for _, h := range env.tr.byName("serve.handler") {
		d := h.dur()
		if b, ok := env.carried[h.Req]; ok {
			d -= b.dur()
			wait = append(wait, ms(b.Start-h.Start))
		}
		self = append(self, ms(d))
	}
	for _, b := range env.tr.byName("serve.backend") {
		backend = append(backend, ms(b.dur()))
	}
	vals["serve.self_ms"] = mean(self)
	vals["serve.batch_wait_ms"] = mean(wait)
	vals["serve.batch_size"] = mean(env.sizes)
	vals["session.infer_batch_ms"] = mean(backend)
	var rejected, writes, conflicts int
	for _, r := range rs {
		switch r.status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		case http.StatusConflict:
			conflicts++
		}
		if r.op.class == classWrite {
			writes++
		}
	}
	if len(rs) > 0 {
		vals["serve.rejected"] = float64(rejected) / float64(len(rs))
	}
	if writes > 0 {
		vals["dyn.conflicts"] = float64(conflicts) / float64(writes)
	}
}

// smallLayers measures mallocs per request of Session.InferBatch, one
// request per call, over every generated small graph.
func smallLayers(sim *scale.Simulator, w *workload, vals map[string]float64) error {
	sess, err := sim.NewSession("gcn", smallDims)
	if err != nil {
		return err
	}
	reqs := make([]scale.InferRequest, len(w.small))
	for i, in := range w.small {
		reqs[i] = scale.InferRequest{NumVertices: in.n, Edges: in.edges, Features: in.feats}
	}
	ctx := context.Background()
	if _, err := sess.InferBatch(ctx, reqs[:1]); err != nil { // warm the state pool
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		if _, err := sess.InferBatch(ctx, reqs[i:i+1]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	vals["session.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	return nil
}

// redditLayers times each Reddit-shaped input through the layers the
// sharded path runs — graph build, partition, the pool pass with its
// workers, and the per-layer forward — one request at a time, and prints
// the measured split beside the cycle model's.
func redditLayers(sim *scale.Simulator, env *inproc, tr *tracer, w *workload, vals map[string]float64) ([]result, error) {
	ctx := context.Background()
	dims := redditDims
	spec := shard.SessionSpec{Model: "gcn", Dims: dims, Precision: "fp32"}
	sess, err := sim.NewSession("gcn", dims)
	if err != nil {
		return nil, err
	}
	sess8, err := sim.NewSessionPrecision("gcn", dims, "int8")
	if err != nil {
		return nil, err
	}
	model, err := gnn.NewModel("gcn", dims, 1)
	if err != nil {
		return nil, err
	}
	layers := len(dims) - 1
	acc := map[string][]float64{}
	add := func(k string, v float64) { acc[k] = append(acc[k], v) }
	var checks []result
	var modelAgg, modelUpd, modelComm []float64
	int8MS := make([][]float64, layers) // side table only, not a metric
	for i, in := range w.reddit {
		sp := tr.begin("graph.build", 0, int64(i))
		b := graph.NewBuilder(in.n)
		for _, e := range in.edges {
			b.AddEdge(e[0], e[1])
		}
		g := b.Build("user")
		sp = tr.end(sp)
		add("graph.build_ms", ms(sp.dur()))
		x := tensor.NewMatrix(in.n, dims[0])
		for v, row := range in.feats {
			copy(x.Row(v), row)
		}

		sp = tr.begin("shard.partition", 0, int64(i))
		plan, err := shard.PartitionGraph(g, env.pool.Parts())
		sp = tr.end(sp)
		if err != nil {
			return nil, err
		}
		add("shard.partition_ms", ms(sp.dur()))

		var in0, out0, halo0 int64
		for _, p := range env.probes {
			in0, out0, halo0 = in0+p.in.Load(), out0+p.out.Load(), halo0+p.halo.Load()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ps := tr.begin("shard.pass", 0, int64(i))
		for _, p := range env.probes {
			p.pass.Store(ps.ID)
		}
		out, _, err := env.pool.Run(ctx, spec, g, x)
		ps = tr.end(ps)
		runtime.ReadMemStats(&m1)
		for _, p := range env.probes {
			p.pass.Store(0)
		}
		r := result{op: &op{id: -1}, err: err}
		if err == nil {
			if err := sameBits(in.want, matrixRows(out)); err != nil {
				r.err = fmt.Errorf("%w: pool pass: %v", errMismatch, err)
			}
		}
		checks = append(checks, r)
		var in1, out1, halo1 int64
		for _, p := range env.probes {
			in1, out1, halo1 = in1+p.in.Load(), out1+p.out.Load(), halo1+p.halo.Load()
		}
		kids := tr.children(ps.ID)
		var worker time.Duration
		for _, k := range kids {
			worker += k.dur()
		}
		add("shard.pass_ms", ms(ps.dur()))
		add("shard.worker_ms", ms(worker))
		add("shard.front_self_ms", ms(selfTime(ps, kids)))
		add("shard.wire_bytes_out", float64(in1-in0))
		add("shard.wire_bytes_in", float64(out1-out0))
		add("shard.halo_bytes", float64(halo1-halo0))
		add("shard.allocs_per_pass", float64(m1.Mallocs-m0.Mallocs))
		add("shard.alloc_bytes_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc))

		rep, err := sim.SimulateGraph("gcn", dims, "request", g.Degrees())
		if err != nil {
			return nil, err
		}
		est, err := shard.EstimateComm(plan, dims, 4, env.pool.Topology(), rep.Cycles)
		if err != nil {
			return nil, err
		}
		add("shard.halo_bytes_model", float64(est.HaloBytes))
		modelAgg, modelUpd, modelComm = append(modelAgg, rep.AggShare), append(modelUpd, rep.UpdateShare), append(modelComm, rep.CommShare)

		prof := graph.ProfileOf(g)
		h, h8 := x, x
		var fwdNS, fwdOps float64
		for li := 0; li < layers; li++ {
			sp = tr.begin(fmt.Sprintf("forward.l%d.prepare", li), 0, int64(i))
			gnn.PrepareLayerPrecision(model.Layers[li], h, 0, false)
			sp = tr.end(sp)
			add(fmt.Sprintf("forward.l%d.prepare_ms", li), ms(sp.dur()))
			sp = tr.begin(fmt.Sprintf("forward.l%d", li), 0, int64(i))
			next, err := sess.ForwardLayerCSR(ctx, li, g, h, nil, 0)
			sp = tr.end(sp)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("forward.l%d.ms", li), ms(sp.dur()))
			lw := model.Layers[li].Work()
			fwdNS += float64(sp.dur())
			fwdOps += float64(lw.AggOps(prof) + lw.UpdateOps(prof))
			h = next

			sp = tr.begin(fmt.Sprintf("forward.l%d.int8", li), 0, int64(i))
			next8, err := sess8.ForwardLayerCSR(ctx, li, g, h8, nil, 0)
			sp = tr.end(sp)
			if err != nil {
				return nil, err
			}
			int8MS[li] = append(int8MS[li], ms(sp.dur()))
			h8 = next8
		}
		add("forward.ns_per_op", fwdNS/fwdOps)
	}
	// The first input warms sessions and pools; report the rest.
	for k, xs := range acc {
		if len(xs) > 1 {
			xs = xs[1:]
		}
		vals[k] = mean(xs)
	}

	prep := vals["forward.l0.prepare_ms"] + vals["forward.l1.prepare_ms"]
	aggUpd := vals["forward.l0.ms"] + vals["forward.l1.ms"] - prep
	halo := vals["shard.front_self_ms"]
	total := prep + aggUpd + halo
	fmt.Fprintf(os.Stderr, "measured vs modelled split (gcn %v, Reddit-shaped requests):\n", dims)
	fmt.Fprintf(os.Stderr, "  measured: prepare %5.1f%%  aggregate+update %5.1f%%  halo/front %5.1f%%  (%.1f ms per request)\n",
		100*prep/total, 100*aggUpd/total, 100*halo/total, total)
	fmt.Fprintf(os.Stderr, "  modelled: aggregate %5.1f%%  update %5.1f%%  comm %5.1f%%  (cycle model AggShare/UpdateShare/CommShare on the same degrees)\n",
		100*mean(modelAgg), 100*mean(modelUpd), 100*mean(modelComm))
	fmt.Fprintf(os.Stderr, "  halo bytes per pass: measured %.0f, modelled %.0f\n", vals["shard.halo_bytes"], vals["shard.halo_bytes_model"])
	fmt.Fprintf(os.Stderr, "forward layer time, fp32 vs int8 (explanatory; no workload serves int8):\n")
	for li := 0; li < layers; li++ {
		fmt.Fprintf(os.Stderr, "  layer %d: fp32 %.2f ms  int8 %.2f ms\n", li, vals[fmt.Sprintf("forward.l%d.ms", li)], mean(int8MS[li][1:]))
	}
	return checks, nil
}

// dynLayers replays dynamic-rw's writes and reads in schedule order
// directly against a dyn.Graph, timing Apply, View, Sample and inference.
func dynLayers(sim *scale.Simulator, tr *tracer, w *workload, vals map[string]float64) error {
	in := w.dynamic
	g, err := dyn.New(in.base, in.baseX, dyn.Config{CompactThreshold: 0.25})
	if err != nil {
		return err
	}
	sess, err := sim.NewSession("gcn", smallDims)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var apply, compact, view, sample, infer []float64
	wi, ri := 0, 0
	for wi < len(in.batches) || ri < len(in.reads) {
		// Writes are due at i/writeRate, reads at (i+0.5)/readRate.
		writeNext := ri >= len(in.reads) ||
			(wi < len(in.batches) && float64(wi)/writeRate <= (float64(ri)+0.5)/readRate)
		if writeNext {
			c0 := g.Stats().Compactions
			sp := tr.begin("dyn.apply", 0, int64(wi))
			err := g.Apply(in.batches[wi])
			sp = tr.end(sp)
			if err != nil {
				return fmt.Errorf("apply batch %d: %w", wi, err)
			}
			if g.Stats().Compactions > c0 {
				compact = append(compact, ms(sp.dur()))
			} else {
				apply = append(apply, float64(sp.dur())/float64(time.Microsecond))
			}
			wi++
			continue
		}
		rs := in.reads[ri]
		id := int64(len(in.batches) + ri)
		ri++
		sp := tr.begin("dyn.view", 0, id)
		gg, xx, err := g.View()
		sp = tr.end(sp)
		if err != nil {
			return err
		}
		view = append(view, ms(sp.dur()))
		if rs.sampled {
			sp = tr.begin("dyn.sample", 0, id)
			layers, err := (dyn.Sampler{Fanout: sampleFanout, Seed: rs.seed}).Sample(gg, sess.NumLayers())
			sp = tr.end(sp)
			if err != nil {
				return err
			}
			sample = append(sample, ms(sp.dur()))
			sp = tr.begin("dyn.infer", 0, id)
			_, err = sess.InferSampled(ctx, layers, xx, 0)
			sp = tr.end(sp)
			if err != nil {
				return err
			}
		} else {
			sp = tr.begin("dyn.infer", 0, id)
			_, err = sess.InferGraph(ctx, gg, xx, 0)
			sp = tr.end(sp)
			if err != nil {
				return err
			}
		}
		infer = append(infer, ms(sp.dur()))
	}
	st := g.Stats()
	vals["dyn.apply_us"] = mean(apply)
	vals["dyn.compact_ms"] = mean(compact)
	vals["dyn.view_ms"] = mean(view)
	vals["dyn.sample_ms"] = mean(sample)
	vals["dyn.infer_ms"] = mean(infer)
	if t := st.SchedReused + st.SchedRecomputed; t > 0 {
		vals["dyn.sched_hit_rate"] = float64(st.SchedReused) / float64(t)
	}
	fmt.Fprintf(os.Stderr, "dyn: %d batches (%d compacting), %d reads\n", len(in.batches), len(compact), len(in.reads))
	return nil
}

// simLayers reads the simulator metrics from the spans of the reference
// calls buildWorkload made, and times one cold profile per dataset.
func simLayers(tr *tracer, w *workload, vals map[string]float64) error {
	perDataset := map[string][]float64{}
	perBaseline := map[string][]float64{}
	var hostNS, kcycles float64
	digest := fnv.New64a()
	for i, c := range w.sims {
		var sp span
		for _, s := range tr.byName("sim." + c.accel) {
			if s.Req == int64(i) {
				sp = s
			}
		}
		if c.accel == "scale" {
			perDataset[c.dataset] = append(perDataset[c.dataset], ms(sp.dur()))
		} else {
			perBaseline[c.accel] = append(perBaseline[c.accel], ms(sp.dur()))
		}
		hostNS += float64(sp.dur())
		kcycles += float64(c.want.Cycles) / 1000
		b, err := json.Marshal(c.want)
		if err != nil {
			return err
		}
		digest.Write(b)
	}
	for d, xs := range perDataset {
		vals["sim.scale_ms."+d] = mean(xs)
	}
	var names []string
	for a := range perBaseline {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		vals["sim.baseline_ms"] += mean(perBaseline[a])
	}
	vals["sim.host_ns_per_kcycle"] = hostNS / kcycles
	// 48 bits survive a JSON number exactly.
	vals["sim.stats_digest"] = float64(digest.Sum64() & (1<<48 - 1))
	var profile float64
	for _, name := range scale.Datasets() {
		d, err := graph.ByName(name)
		if err != nil {
			return err
		}
		sp := tr.begin("sim.profile", 0, -1)
		d.Profile()
		profile += ms(tr.end(sp).dur())
	}
	vals["sim.profile_ms"] = profile
	return nil
}
