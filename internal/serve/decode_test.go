package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scale/internal/graph"
)

// checkDecode is the differential contract of decodeInferBody: it accepts
// exactly what json.Unmarshal accepts, with equal fields and float bits, and
// its feature rows tile body.feat. Against the json.Decoder the handler used
// before, the one documented difference is trailing data after the body.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeInferBody(data)
	var want inferBody
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("input %.200q: decodeInferBody err = %v, json.Unmarshal err = %v", data, err, werr)
	}
	if err == nil {
		if diff := bodyDiff(got, want); diff != "" {
			t.Fatalf("input %.200q: %s", data, diff)
		}
		if err := checkFlat(got); err != nil {
			t.Fatalf("input %.200q: %v", data, err)
		}
	}
	var old inferBody
	dec := json.NewDecoder(bytes.NewReader(data))
	if dec.Decode(&old) == nil && err != nil {
		if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) == 0 {
			t.Fatalf("input %.200q: json.Decoder accepts it without trailing data, decodeInferBody rejects it: %v", data, err)
		}
	}
}

// bodyDiff describes the first difference between two decoded bodies,
// comparing floats by bits and slices by nil state too.
func bodyDiff(got, want inferBody) string {
	scalars := [][2]any{
		{got.Model, want.Model}, {got.NumVertices, want.NumVertices}, {got.TimeoutMS, want.TimeoutMS},
		{got.Precision, want.Precision}, {got.Graph, want.Graph},
		{got.SampleFanout, want.SampleFanout}, {got.SampleSeed, want.SampleSeed},
	}
	for i, s := range scalars {
		if s[0] != s[1] {
			return fmt.Sprintf("scalar field %d = %v, want %v", i, s[0], s[1])
		}
	}
	if (got.Dims == nil) != (want.Dims == nil) || fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) {
		return fmt.Sprintf("dims = %#v, want %#v", got.Dims, want.Dims)
	}
	if (got.Edges == nil) != (want.Edges == nil) || fmt.Sprint(got.Edges) != fmt.Sprint(want.Edges) {
		return fmt.Sprintf("edges = %v (nil %t), want %v (nil %t)", got.Edges, got.Edges == nil, want.Edges, want.Edges == nil)
	}
	if (got.Features == nil) != (want.Features == nil) || len(got.Features) != len(want.Features) {
		return fmt.Sprintf("features = %v, want %v", got.Features, want.Features)
	}
	for v, row := range want.Features {
		g := got.Features[v]
		if (g == nil) != (row == nil) || len(g) != len(row) {
			return fmt.Sprintf("feature row %d = %#v, want %#v", v, g, row)
		}
		for j := range row {
			if math.Float32bits(g[j]) != math.Float32bits(row[j]) {
				return fmt.Sprintf("feature %d/%d bits %#x, want %#x", v, j, math.Float32bits(g[j]), math.Float32bits(row[j]))
			}
		}
	}
	return ""
}

// checkFlat checks that the non-empty feature rows are consecutive
// full-slice-expression subslices of body.feat, tiling it exactly.
func checkFlat(body inferBody) error {
	off := 0
	for v, row := range body.Features {
		if len(row) == 0 {
			continue
		}
		if cap(row) != len(row) || off+len(row) > len(body.feat) || &row[0] != &body.feat[off] {
			return fmt.Errorf("feature row %d is not feat[%d:%d:%d]", v, off, off+len(row), off+len(row))
		}
		off += len(row)
	}
	if off != len(body.feat) {
		return fmt.Errorf("rows cover %d of feat's %d values", off, len(body.feat))
	}
	return nil
}

// redditBody is a Reddit-shaped /v1/infer body like the benchmark's
// infer-reddit-sharded inputs: a dense community graph (average degree
// 474) with dims 602→64→41 and short-decimal features.
func redditBody(tb testing.TB, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g := graph.CommunityGraph(n, n/64+1, 474, rng.Int63())
	return marshalGraphBody(tb, g, []int{602, 64, 41}, rng)
}

func marshalGraphBody(tb testing.TB, g *graph.Graph, dims []int, rng *rand.Rand) []byte {
	tb.Helper()
	body := inferBody{Model: "gcn", Dims: dims, NumVertices: g.NumVertices()}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.InNeighbors(v) {
			body.Edges = append(body.Edges, [2]int{int(u), v})
		}
	}
	body.Features = make([][]float32, g.NumVertices())
	for v := range body.Features {
		row := make([]float32, dims[0])
		for j := range row {
			row[j] = float32(rng.Intn(17)-8) / 8
		}
		body.Features[v] = row
	}
	raw, err := json.Marshal(body)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// decodeSeeds is the seed corpus: the bodies the serve tests post, a small
// Reddit-shaped body, and the edge cases of the decoding contract.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	// http_test.go and precision_test.go bodies.
	add(validInfer())
	for _, edit := range []func(*inferBody){
		func(b *inferBody) { b.Edges = [][2]int{{0, 9}} },
		func(b *inferBody) { b.Features = b.Features[:2] },
		func(b *inferBody) { b.Features = [][]float32{{1, 0}, {0, 1}, {1, 1, 1}} },
		func(b *inferBody) { b.Model = "nope" },
		func(b *inferBody) { b.NumVertices = 1 << 30 },
		func(b *inferBody) { b.TimeoutMS = 20 },
		func(b *inferBody) { b.Precision = "fp32" },
		func(b *inferBody) { b.Precision = "int8" },
		func(b *inferBody) { b.Precision = "fp64" },
		func(b *inferBody) { b.Graph, b.SampleFanout, b.SampleSeed = "dynamic", 3, 42 },
	} {
		b := validInfer()
		edit(&b)
		add(b)
	}
	seeds = append(seeds, []byte("{not json"))
	req := testGraph(7, 24, 4, 8)
	add(inferBody{Model: "gcn", Dims: []int{8, 16, 4}, NumVertices: req.NumVertices, Edges: req.Edges, Features: req.Features})
	// shard_test.go bodies.
	add(map[string]any{
		"model": "gcn", "dims": []int{3, 2}, "num_vertices": 2,
		"edges": [][2]int{{0, 1}}, "features": [][]float32{{1, 0, 1}, {0, 1, 0}},
	})
	rng := rand.New(rand.NewSource(41))
	seeds = append(seeds, marshalGraphBody(tb, graph.CommunityGraph(220, 5, 9, 41), []int{11, 7, 4}, rng))
	seeds = append(seeds, marshalGraphBody(tb, graph.CommunityGraph(150, 4, 8, 23), []int{7, 5, 3}, rng))
	// A small Reddit-shaped body.
	seeds = append(seeds, marshalGraphBody(tb, graph.CommunityGraph(24, 2, 12, 3), []int{16, 8, 4}, rng))

	for _, s := range decodeEdgeCases {
		seeds = append(seeds, []byte(s))
	}
	deep := func(levels int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + `}`)
	}
	// The body object is level 1: 9999 arrays inside it reach the limit,
	// 10000 exceed it.
	seeds = append(seeds, deep(maxNestingDepth-1), deep(maxNestingDepth))
	return seeds
}

// decodeEdgeCases lists the inputs the decoding contract names.
var decodeEdgeCases = []string{
	// Top level.
	``, `   `, `null`, " null \n", `{}`, `[]`, `"x"`, `1`, `true`, "\ufeff{}",
	// Trailing data: json.Unmarshal rejects it, and so does the decoder.
	`{"model":"gcn"} x`, `{"model":"gcn"}{}`, "{\"model\":\"gcn\"}\n\t ",
	// Nulls, duplicate keys, case-folded and escaped keys.
	`{"model":null}`, `{"model":"gcn","model":null}`, `{"model":"gcn","model":"gin"}`,
	`{"MODEL":"gcn"}`, `{"Dims":[1,2]}`, `{"dimſ":[1]}`, `{"num_verticeſ":3}`, `{"\u006dodel":"x"}`,
	`{"tımeout_ms":3}`, `{"K":1,"ſample_seed":2}`,
	`{"dims":[1,2],"dims":[3]}`, `{"dims":[1,2,3],"dims":[4],"dims":[null,null,null]}`,
	`{"dims":[5,6],"dims":[null,7]}`, `{"dims":null}`, `{"dims":[]}`, `{"dims":[1,2],"dims":null}`,
	`{"dims":[1,2],"dims":[],"dims":[null]}`, `{"dims":[null]}`, `{"dims":{}}`, `{"dims":"12"}`,
	// Edges: short, long, null and reused elements.
	`{"edges":[[1]]}`, `{"edges":[[1,2,3]]}`, `{"edges":[[1,2,"x",{"a":[]}]]}`, `{"edges":[null]}`,
	`{"edges":[[5,6]],"edges":[[null]]}`, `{"edges":[[5,6]],"edges":[null]}`, `{"edges":[[]]}`,
	`{"edges":[5]}`, `{"edges":[[1,2]],"edges":[]}`, `{"edges":[[1.5,2]]}`, `{"edges":[[1,2,tru]]}`,
	// Ints and uints.
	`{"num_vertices":1.0}`, `{"num_vertices":1e2}`, `{"num_vertices":-0}`, `{"num_vertices":-12}`,
	`{"num_vertices":999999999999999999}`, `{"num_vertices":9223372036854775807}`,
	`{"num_vertices":9223372036854775808}`, `{"num_vertices":-9223372036854775808}`,
	`{"num_vertices":"3"}`, `{"num_vertices":true}`, `{"num_vertices":[3]}`,
	`{"sample_seed":-1}`, `{"sample_seed":-0}`, `{"sample_seed":18446744073709551615}`,
	`{"sample_seed":18446744073709551616}`, `{"sample_seed":1e3}`,
	// Floats: overflow, underflow, rounding at the fast path's edges.
	`{"features":[[1e39]]}`, `{"features":[[-1e39]]}`, `{"features":[[1e-50]]}`, `{"features":[[3.4028235e38]]}`,
	`{"features":[[3.4028236e38]]}`, `{"features":[[1.401298464324817e-45]]}`,
	`{"features":[[0.1,-0.0,1E+2,16777216,16777217,0.30000001192092896,-8.875]]}`,
	`{"features":[[0.0000000001,0.00000000001,1234567.8,0.1234567,123456789012345678901234567890]]}`,
	// Feature rows: nulls, empties, reuse across duplicate keys.
	`{"features":[[null,1],null,[]]}`, `{"features":[[]]}`, `{"features":[]}`, `{"features":null}`,
	`{"features":[[1,2,3]],"features":[[null]]}`, `{"features":[[1,2]],"features":[[null,null,null]]}`,
	`{"features":[[1,2,3],[4]],"features":[[5],[6,null]],"features":[[null,null,null],[null,null]]}`,
	`{"features":[[1]],"features":null,"features":[[2]]}`, `{"features":[[1]],"features":[]}`,
	`{"features":[[1],[2]],"features":[null,[]]}`, `{"features":[["1"]]}`, `{"features":[1]}`, `{"features":{}}`,
	// Unknown fields are validated, then ignored.
	`{"unknown":{"a":[1,{"b":null}],"c":"\ud800","d":true,"e":false}}`, `{"x":[[[[]]]]}`, `{"x":{"y":{}}}`,
	// Strings: escapes, invalid UTF-8, control characters.
	`{"model":"g\"c\\n\/\b\f\n\r\t"}`, `{"model":"é😀"}`, "{\"model\":\"\xff\"}",
	"{\"model\":\"\xed\xa0\x80\"}", "{\"model\":\"gc\x01n\"}", `{"model":"g\qn"}`, `{"model":"\u12"}`,
	`{"model":"\u12g4"}`, `{"model":"abc`, `{"model":"ab\`,
	// Malformed numbers, literals and structure.
	`{"a":01}`, `{"a":1.}`, `{"a":.5}`, `{"a":-}`, `{"a":+1}`, `{"a":1e}`, `{"a":1e+}`, `{"a":nul}`,
	`{"a":truex}`, `{"a" 1}`, `{"a":1,}`, `{,}`, `{"a":[1,]}`, `{"a":[1 2]}`, `{"a":1`, `{"a"`, `{`,
	`{"dims":[1,]}`, `{"dims":[1`, `{"edges":[[1,2]`, `{"features":[[1,2],]}`, `{"features":[[1,2]`,
	`{"num_vertices":3 "model":"x"}`, `{"dims":[01]}`, `{"dims":[-]}`, `{"features":[[-]]}`,
}

func TestDecodeInferBodyContract(t *testing.T) {
	for _, s := range decodeSeeds(t) {
		checkDecode(t, s)
	}
}

// FuzzInferBody differentially fuzzes decodeInferBody against
// json.Unmarshal (see checkDecode).
func FuzzInferBody(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkDecode)
}

// Decoding allocates per growing slice, never per feature row or edge: a
// body with four times the vertices (and about four times the edges) costs
// only the few extra doublings of each slice.
func TestDecodeInferBodyAllocsFlatInVertices(t *testing.T) {
	small, large := redditBody(t, 100), redditBody(t, 400)
	allocs := func(raw []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := decodeInferBody(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if b > a+12 {
		t.Fatalf("decoding 400 vertices allocates %.0f times, 100 vertices %.0f: allocations grow with the body", b, a)
	}
}

// The one deliberate tightening over the json.Decoder the handler used
// before: data after the body is a 400, with the usual bad-JSON prefix.
func TestInferTrailingDataIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	raw, err := json.Marshal(validInfer())
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "POST", "/v1/infer", string(raw)+" \n"); rec.Code != 200 {
		t.Fatalf("trailing whitespace: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, s, "POST", "/v1/infer", string(raw)+` {"model":"gin"}`)
	if e := decodeError(t, rec); rec.Code != 400 || e.Kind != "bad_input" || !strings.HasPrefix(e.Error, "bad JSON body: ") {
		t.Fatalf("trailing data: %d %s", rec.Code, rec.Body.String())
	}
}
