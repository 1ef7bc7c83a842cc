package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"scale"
	"scale/internal/dyn"
	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// Fixed traffic of every workload. Rates are about half of what the parent
// commit sustained on a 2-CPU box, limits a few times its low-load median;
// README.md records the calibration.
const (
	smallRate    = 100.0 // infer-small requests per second
	smallPool    = 256   // distinct generated small graphs
	redditRate   = 2.0   // infer-reddit-sharded requests per second
	redditPool   = 6     // distinct generated Reddit-shaped graphs
	writeRate    = 40.0  // dynamic-rw mutation batches per second
	readRate     = 10.0  // dynamic-rw reads per second; one connection, ~35 ms each
	batchOps     = 64    // ops per mutation batch
	sampleFanout = 10    // fanout of sampled dynamic-rw reads
	dynDim       = 32    // feature width of the served dynamic graph (-dyn-dim)
	dynFeatSeed  = 11    // scale-serve seeds -dynamic features with this
	sweepRounds  = 8     // permutations queued per simulate-sweep client
)

var (
	smallDims  = []int{32, 32, 8}
	redditDims = []int{602, 64, 41} // Table II Reddit feature lengths
)

// workload is one generated traffic mix plus its correctness checks.
type workload struct {
	limit  time.Duration // latency limit counted by goodput_rps
	tailPM int           // tail percentile reported at the default run length
	open   []openSpec    // open-loop streams (nil for a closed loop)
	closed [][]*op       // closed-loop client sequences
	probe  *op           // the answer that ends set-up; the same size for every seed
	// final runs after the load stops (quiesced checks); may be nil.
	final func(s sender) []result

	small   []graphInput
	reddit  []graphInput
	dynamic *dynInputs
	sims    []simCall
}

// openSpec is an open-loop stream before it is bound to connections.
type openSpec struct {
	ops   []*op
	at    []time.Duration
	conns int
}

// graphInput is one generated /v1/infer request and its expected answer.
type graphInput struct {
	n     int
	edges [][2]int
	feats [][]float32
	want  [][]float32
	body  []byte
}

// inferBody mirrors the /v1/infer request schema.
type inferBody struct {
	Model        string      `json:"model"`
	Dims         []int       `json:"dims"`
	NumVertices  int         `json:"num_vertices,omitempty"`
	Edges        [][2]int    `json:"edges,omitempty"`
	Features     [][]float32 `json:"features,omitempty"`
	Graph        string      `json:"graph,omitempty"`
	SampleFanout int         `json:"sample_fanout,omitempty"`
	SampleSeed   uint64      `json:"sample_seed,omitempty"`
}

var workloadNames = []string{"infer-small", "infer-reddit-sharded", "dynamic-rw", "simulate-sweep"}

// newSim builds a simulator with scale-serve's default flags, so in-process
// references run the same configuration as the served processes.
func newSim() (*scale.Simulator, error) {
	return scale.New(scale.Options{MACs: 1024, Scheduling: "dvs"})
}

// buildWorkload generates every input of the named workload from seed and
// computes the expected answers in-process. Spans of the reference calls go
// to tr (nil records nothing).
func buildWorkload(name string, seed int64, seconds float64, sim *scale.Simulator, tr *tracer) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "infer-small":
		return buildSmall(rng, seconds, sim)
	case "infer-reddit-sharded":
		return buildReddit(rng, seconds, sim)
	case "dynamic-rw":
		return buildDynamic(rng, seconds, sim)
	case "simulate-sweep":
		return buildSweep(rng, sim, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// feature returns a short-decimal feature value in [-1, 1]: exact in
// float32 and a few bytes of JSON.
func feature(rng *rand.Rand) float32 { return float32(rng.Intn(17)-8) / 8 }

func features(rng *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for v := range rows {
		rows[v] = make([]float32, dim)
		for j := range rows[v] {
			rows[v][j] = feature(rng)
		}
	}
	return rows
}

// edgeList returns g's directed edges as src→dst pairs in CSR order.
func edgeList(g *graph.Graph) [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			out = append(out, [2]int{int(u), v})
		}
	}
	return out
}

// finishInputs computes each input's expected fp32 embeddings with a local
// session and encodes its request body.
func finishInputs(sim *scale.Simulator, dims []int, ins []graphInput) error {
	sess, err := sim.NewSession("gcn", dims)
	if err != nil {
		return err
	}
	for i := range ins {
		in := &ins[i]
		if in.want, err = sess.Infer(in.n, in.edges, in.feats); err != nil {
			return err
		}
		if in.body, err = json.Marshal(inferBody{Model: "gcn", Dims: dims, NumVertices: in.n, Edges: in.edges, Features: in.feats}); err != nil {
			return err
		}
	}
	return nil
}

// inferOps schedules count requests over ins: each run of len(ins)
// requests is a seeded permutation of all of them, so every run offers the
// same mix.
func inferOps(rng *rand.Rand, ins []graphInput, count int) []*op {
	ops := make([]*op, count)
	var perm []int
	for i := range ops {
		if i%len(ins) == 0 {
			perm = rng.Perm(len(ins))
		}
		k := perm[i%len(ins)]
		ops[i] = &op{id: int64(i), class: classRead, path: "/v1/infer", ctype: "application/json",
			body: ins[k].body, check: checkEmbeddings(ins[k].want), poolIx: k}
	}
	return ops
}

func buildSmall(rng *rand.Rand, seconds float64, sim *scale.Simulator) (*workload, error) {
	ins := make([]graphInput, smallPool)
	for i := range ins {
		// Sizes are spread evenly over 16..128 so every seed offers the
		// same size mix; edges and features are drawn.
		n := 16 + i*113/smallPool
		edges := make([][2]int, 4*n)
		for j := range edges {
			edges[j] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		ins[i] = graphInput{n: n, edges: edges, feats: features(rng, n, smallDims[0])}
	}
	if err := finishInputs(sim, smallDims, ins); err != nil {
		return nil, err
	}
	count := int(smallRate * seconds)
	ops := inferOps(rng, ins, count)
	return &workload{
		limit: 40 * time.Millisecond, tailPM: 990,
		open:  []openSpec{{ops: ops, at: evenSchedule(count, smallRate, 0), conns: maxConns}},
		probe: probeOp(ins), small: ins,
	}, nil
}

func buildReddit(rng *rand.Rand, seconds float64, sim *scale.Simulator) (*workload, error) {
	ins := make([]graphInput, redditPool)
	for i := range ins {
		n := 340 + i*21/redditPool
		// Reddit's ~474 average degree inside dense communities: a high
		// mutual-neighbour rate, as in the paper's Reddit profile.
		g := graph.CommunityGraph(n, n/64+1, 474, rng.Int63())
		ins[i] = graphInput{n: n, edges: edgeList(g), feats: features(rng, n, redditDims[0])}
	}
	if err := finishInputs(sim, redditDims, ins); err != nil {
		return nil, err
	}
	count := int(redditRate * seconds)
	ops := inferOps(rng, ins, count)
	return &workload{
		limit: 1000 * time.Millisecond, tailPM: 750,
		open:  []openSpec{{ops: ops, at: evenSchedule(count, redditRate, 0), conns: maxConns}},
		probe: probeOp(ins), reddit: ins,
	}, nil
}

// probeOp is the set-up probe of an infer workload: the middle input,
// whose size the even size spread fixes for every seed.
func probeOp(ins []graphInput) *op {
	k := len(ins) / 2
	return &op{id: -1, class: classRead, path: "/v1/infer", ctype: "application/json",
		body: ins[k].body, check: checkEmbeddings(ins[k].want), poolIx: k}
}

// checkEmbeddings accepts an /v1/infer answer whose embeddings equal want
// bit for bit.
func checkEmbeddings(want [][]float32) func([]byte) error {
	return func(body []byte) error {
		var r struct {
			Embeddings [][]float32 `json:"embeddings"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return sameBits(want, r.Embeddings)
	}
}

func sameBits(want, got [][]float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return fmt.Errorf("row %d has %d values, want %d", v, len(got[v]), len(want[v]))
		}
		for j := range want[v] {
			if math.Float32bits(got[v][j]) != math.Float32bits(want[v][j]) {
				return fmt.Errorf("row %d col %d = %v, want %v", v, j, got[v][j], want[v][j])
			}
		}
	}
	return nil
}

func matrixRows(m *tensor.Matrix) [][]float32 {
	rows := make([][]float32, m.Rows)
	for v := range rows {
		rows[v] = m.Row(v)
	}
	return rows
}

// dynInputs is dynamic-rw's mutation log: the served base graph, every
// batch in send order, the resulting edge multiset and added feature rows,
// and the reads.
type dynInputs struct {
	base    *graph.Graph
	baseX   *tensor.Matrix
	batches []dyn.Batch
	live    [][2]int32  // edge multiset after the last batch
	addedX  [][]float32 // feature rows of added vertices, in id order
	reads   []readSpec
}

type readSpec struct {
	sampled bool
	seed    uint64
}

// dynBase rebuilds the graph scale-serve serves for "-dynamic cora -dyn-dim 32".
func dynBase() (*graph.Graph, *tensor.Matrix, error) {
	d, err := graph.ByName("cora")
	if err != nil {
		return nil, nil, err
	}
	g := d.Build()
	return g, gnn.RandomFeatures(g, dynDim, dynFeatSeed), nil
}

func buildDynamic(rng *rand.Rand, seconds float64, sim *scale.Simulator) (*workload, error) {
	base, x, err := dynBase()
	if err != nil {
		return nil, err
	}
	in := &dynInputs{base: base, baseX: x}
	for v := 0; v < base.NumVertices(); v++ {
		for _, u := range base.InNeighbors(v) {
			in.live = append(in.live, [2]int32{u, int32(v)})
		}
	}
	n := base.NumVertices()
	writes := int(writeRate * seconds)
	wops := make([]*op, writes)
	for i := range wops {
		// One add_vertex, then adds and removes in seeded order: the edge
		// count stays level while the vertex set grows.
		fs := make([]float32, dynDim)
		for j := range fs {
			fs[j] = feature(rng)
		}
		ops := []dyn.Mutation{{Op: dyn.OpAddVertex, Features: fs}}
		in.addedX = append(in.addedX, fs)
		n++
		adds, removes := (batchOps-1)/2+1, (batchOps-1)/2
		for len(ops) < batchOps {
			if adds > 0 && (removes == 0 || rng.Intn(adds+removes) < adds) {
				e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
				in.live = append(in.live, e)
				ops = append(ops, dyn.Mutation{Op: dyn.OpAddEdge, Src: e[0], Dst: e[1]})
				adds--
				continue
			}
			k := rng.Intn(len(in.live))
			e := in.live[k]
			in.live[k] = in.live[len(in.live)-1]
			in.live = in.live[:len(in.live)-1]
			ops = append(ops, dyn.Mutation{Op: dyn.OpRemoveEdge, Src: e[0], Dst: e[1]})
			removes--
		}
		b := dyn.Batch{Ops: ops}
		var buf bytes.Buffer
		if err := dyn.EncodeBatch(&buf, b); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		wops[i] = &op{id: int64(i), class: classWrite, path: "/v1/mutate", ctype: "application/octet-stream",
			body: buf.Bytes(), check: checkMutate(n), poolIx: -1}
	}
	v0, vN := base.NumVertices(), n
	reads := int(readRate * seconds)
	rops := make([]*op, reads)
	for i := range rops {
		rs := readSpec{sampled: i%2 == 1, seed: rng.Uint64()}
		in.reads = append(in.reads, rs)
		body, err := dynReadBody(rs)
		if err != nil {
			return nil, err
		}
		rops[i] = &op{id: int64(writes + i), class: classRead, path: "/v1/infer", ctype: "application/json",
			body: body, check: checkShape(v0, vN, smallDims[len(smallDims)-1]), poolIx: -1}
	}

	sess, err := sim.NewSession("gcn", smallDims)
	if err != nil {
		return nil, err
	}
	probeWant, err := sess.InferGraph(context.Background(), base, x, 0)
	if err != nil {
		return nil, err
	}
	probeBody, err := dynReadBody(readSpec{})
	if err != nil {
		return nil, err
	}
	w := &workload{
		limit: 100 * time.Millisecond, tailPM: 950,
		open: []openSpec{
			{ops: wops, at: evenSchedule(writes, writeRate, 0), conns: 1},
			{ops: rops, at: evenSchedule(reads, readRate, 0.5), conns: 1},
		},
		probe: &op{id: -1, class: classRead, path: "/v1/infer", ctype: "application/json",
			body: probeBody, check: checkEmbeddings(probeWant), poolIx: -1},
		dynamic: in,
	}
	w.final = func(s sender) []result { return finalDynamicChecks(s, sess, in, int64(writes+reads)) }
	return w, nil
}

func dynReadBody(rs readSpec) ([]byte, error) {
	b := inferBody{Model: "gcn", Dims: smallDims, Graph: "dynamic"}
	if rs.sampled {
		b.SampleFanout, b.SampleSeed = sampleFanout, rs.seed
	}
	return json.Marshal(b)
}

// checkMutate accepts a /v1/mutate answer that applied the whole batch and
// left the expected vertex count (writes go out in order on one connection).
func checkMutate(vertices int) func([]byte) error {
	return func(body []byte) error {
		var r struct {
			Applied  int `json:"applied"`
			Vertices int `json:"vertices"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Applied != batchOps || r.Vertices != vertices {
			return fmt.Errorf("applied %d vertices %d, want %d and %d", r.Applied, r.Vertices, batchOps, vertices)
		}
		return nil
	}
}

// checkShape accepts a dynamic read taken while writes run: its vertex count
// lies between the base graph's and the final one, each row cols wide.
func checkShape(lo, hi, cols int) func([]byte) error {
	return func(body []byte) error {
		var r struct {
			Embeddings [][]float32 `json:"embeddings"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Embeddings) < lo || len(r.Embeddings) > hi {
			return fmt.Errorf("%d rows, want %d..%d", len(r.Embeddings), lo, hi)
		}
		for v, row := range r.Embeddings {
			if len(row) != cols {
				return fmt.Errorf("row %d has %d values, want %d", v, len(row), cols)
			}
		}
		return nil
	}
}

// rebuild materializes the mutation log's final graph from scratch.
func (in *dynInputs) rebuild() (*graph.Graph, *tensor.Matrix) {
	n := in.base.NumVertices() + len(in.addedX)
	b := graph.NewBuilder(n)
	for _, e := range in.live {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	x := tensor.NewMatrix(n, dynDim)
	for v := 0; v < in.base.NumVertices(); v++ {
		copy(x.Row(v), in.baseX.Row(v))
	}
	for i, row := range in.addedX {
		copy(x.Row(in.base.NumVertices()+i), row)
	}
	return b.Build("rebuilt"), x
}

// finalDynamicChecks runs after the streams stop: one full-graph and one
// sampled read must equal the same inference over the graph rebuilt from
// the benchmark's own mutation log.
func finalDynamicChecks(s sender, sess *scale.Session, in *dynInputs, firstID int64) []result {
	g, x := in.rebuild()
	m, err := gnn.NewModel("gcn", smallDims, 1)
	var full [][]float32
	if err == nil {
		var outs []*tensor.Matrix
		if outs, err = gnn.Forward(m, g, x); err == nil {
			full = matrixRows(outs[len(outs)-1])
		}
	}
	rs := readSpec{sampled: true, seed: 0x5eed}
	var sampled [][]float32
	if err == nil {
		var layers []*graph.Graph
		if layers, err = (dyn.Sampler{Fanout: sampleFanout, Seed: rs.seed}).Sample(g, sess.NumLayers()); err == nil {
			sampled, err = sess.InferSampled(context.Background(), layers, x, 0)
		}
	}
	var out []result
	for i, c := range []struct {
		rs   readSpec
		want [][]float32
	}{{readSpec{}, full}, {rs, sampled}} {
		o := &op{id: firstID + int64(i), class: classRead, path: "/v1/infer", ctype: "application/json", poolIx: -1}
		r := result{op: o}
		if err != nil {
			r.err = fmt.Errorf("%w: no reference: %v", errMismatch, err)
			out = append(out, r)
			continue
		}
		if o.body, r.err = dynReadBody(c.rs); r.err == nil {
			o.check = checkEmbeddings(c.want)
			r.status, r.err = execute(s, o)
		}
		out = append(out, r)
	}
	return out
}

// simCall is one /v1/simulate request and its expected report.
type simCall struct {
	accel, model, dataset string
	want                  scale.Report
	body                  []byte
}

// baselineAccels are the /v1/simulate backends besides SCALE.
var baselineAccels = []string{"awb-gcn", "gcnax", "regnn", "flowgnn", "i-gcn", "systolic"}

// sweepCalls lists the 65 simulate calls: every model on every dataset on
// SCALE, and gcn on every dataset on each baseline.
func sweepCalls() []simCall {
	var calls []simCall
	for _, d := range scale.Datasets() {
		for _, m := range scale.Models() {
			calls = append(calls, simCall{accel: "scale", model: m, dataset: d})
		}
		for _, a := range baselineAccels {
			calls = append(calls, simCall{accel: a, model: "gcn", dataset: d})
		}
	}
	return calls
}

func buildSweep(rng *rand.Rand, sim *scale.Simulator, tr *tracer) (*workload, error) {
	calls := sweepCalls()
	ops := make([]*op, len(calls))
	for i := range calls {
		c := &calls[i]
		sp := tr.begin("sim."+c.accel, 0, int64(i))
		var err error
		c.want, err = sim.SimulateOn(c.accel, c.model, c.dataset)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("simulate %s/%s/%s: %w", c.accel, c.model, c.dataset, err)
		}
		if c.body, err = json.Marshal(map[string]string{"accel": c.accel, "model": c.model, "dataset": c.dataset}); err != nil {
			return nil, err
		}
		ops[i] = &op{id: int64(i), class: classRead, path: "/v1/simulate", ctype: "application/json",
			body: c.body, check: checkReport(c.want), poolIx: i}
	}
	seqs := make([][]*op, maxConns)
	for c := range seqs {
		for r := 0; r < sweepRounds; r++ {
			for _, k := range spreadPerm(rng, calls) {
				seqs[c] = append(seqs[c], ops[k])
			}
		}
	}
	// gcn on Cora on SCALE is the fixed set-up probe.
	return &workload{
		limit: 2 * time.Second, tailPM: 950,
		closed: seqs, probe: ops[0], sims: calls,
	}, nil
}

// spreadPerm returns a seeded permutation of the calls in which each cost
// class — one dataset on SCALE, or one dataset on the baselines — is spread
// evenly: a class of c calls lands near every 65/c-th position, at a
// seeded offset, in seeded order. A run cut off mid-sweep then holds the
// same mix of cheap and Reddit-sized calls whatever the seed.
func spreadPerm(rng *rand.Rand, calls []simCall) []int {
	classes := map[string][]int{}
	var keys []string
	for i, c := range calls {
		k := c.dataset + "/" + strconv.FormatBool(c.accel == "scale")
		if classes[k] == nil {
			keys = append(keys, k)
		}
		classes[k] = append(classes[k], i)
	}
	type slot struct {
		pos float64
		ix  int
	}
	var slots []slot
	for _, k := range keys {
		members := classes[k]
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		off := rng.Float64()
		for j, ix := range members {
			slots = append(slots, slot{(float64(j) + off) / float64(len(members)), ix})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	out := make([]int, len(slots))
	for i, sl := range slots {
		out[i] = sl.ix
	}
	return out
}

// checkReport accepts a /v1/simulate answer whose report equals want.
func checkReport(want scale.Report) func([]byte) error {
	return func(body []byte) error {
		var got scale.Report
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("report %+v, want %+v", got, want)
		}
		return nil
	}
}
