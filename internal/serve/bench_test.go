package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// benchServe measures end-to-end /v1/infer throughput through the full
// handler stack (admission queue → session cache → micro-batcher →
// forward). The workload is a small graph, where per-call fixed costs
// (scheduling, state checkout, layer prep) dominate — exactly the regime a
// micro-batcher exists for. Run the serve benchmarks with
//
//	go test ./internal/serve -run '^$' -bench BenchmarkServe -benchmem
func benchServe(b *testing.B, cfg Config) {
	cfg.Sim = testSim(b)
	s := New(cfg)
	defer s.Close()

	req := testGraph(42, 32, 3, 8)
	body, err := json.Marshal(inferBody{
		Model: "gcn", Dims: []int{8, 16, 8}, NumVertices: req.NumVertices,
		Edges: req.Edges, Features: req.Features,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the session and weights once so both variants measure steady
	// state.
	if rec := do(b, s, "POST", "/v1/infer", string(body)); rec.Code != 200 {
		b.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, r)
			if rec.Code != 200 {
				b.Errorf("code %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkServeUnbatched is the one-request-at-a-time baseline: every
// request pays the full per-forward fixed cost.
func BenchmarkServeUnbatched(b *testing.B) {
	benchServe(b, Config{MaxBatch: 1})
}

// BenchmarkServeBatched lets the micro-batcher coalesce the concurrent
// clients; the recorded margin over BenchmarkServeUnbatched is the win
// committed to BENCH_pr5.json.
func BenchmarkServeBatched(b *testing.B) {
	benchServe(b, Config{MaxBatch: 16, BatchWindow: time.Millisecond})
}

// benchServeHeavy is benchServe on an aggregation-dominated workload — a
// dense graph with wide features, the regime the int8 tier targets. The
// fp32/int8 pair below shares this workload so their margin isolates the
// precision switch.
func benchServeHeavy(b *testing.B, precision string) {
	cfg := Config{MaxBatch: 16, BatchWindow: time.Millisecond, DefaultPrecision: precision}
	cfg.Sim = testSim(b)
	s := New(cfg)
	defer s.Close()

	req := testGraph(42, 256, 192, 64)
	body, err := json.Marshal(inferBody{
		Model: "gcn", Dims: []int{64, 32, 8}, NumVertices: req.NumVertices,
		Edges: req.Edges, Features: req.Features,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rec := do(b, s, "POST", "/v1/infer", string(body)); rec.Code != 200 {
		b.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest("POST", "/v1/infer", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, r)
			if rec.Code != 200 {
				b.Errorf("code %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkServeBatchedHeavy is the float32 reference for the int8 serving
// comparison committed to BENCH_pr7.json.
func BenchmarkServeBatchedHeavy(b *testing.B) {
	benchServeHeavy(b, "fp32")
}

// BenchmarkServeBatchedHeavyInt8 runs the identical workload through the
// quantized tier (server-default precision int8).
func BenchmarkServeBatchedHeavyInt8(b *testing.B) {
	benchServeHeavy(b, "int8")
}

// BenchmarkDecodeInferBody times /v1/infer body decoding alone: the
// reflection-free decoder against json.Unmarshal, on the benchmark's
// Reddit-shaped body (350 vertices, ~160k edges, 602-wide features) and on
// an infer-small-sized one. MB/s is body bytes per second.
func BenchmarkDecodeInferBody(b *testing.B) {
	small := testGraph(42, 64, 4, 32)
	smallBody, err := json.Marshal(inferBody{
		Model: "gcn", Dims: []int{32, 32, 8}, NumVertices: small.NumVertices,
		Edges: small.Edges, Features: small.Features,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		body []byte
	}{{"reddit", redditBody(b, 350)}, {"small", smallBody}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := decodeInferBody(in.body)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = body
			}
		})
		b.Run(in.name+"/json.Unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(in.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var body inferBody
				if err := json.Unmarshal(in.body, &body); err != nil {
					b.Fatal(err)
				}
				decodeSink = body
			}
		})
	}
}

var decodeSink inferBody
