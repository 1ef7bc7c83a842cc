package gnn

import (
	"testing"

	"scale/internal/graph"
)

// Golden reference forward pass, full-size Cora (2-layer GCN, Table II dims).
func BenchmarkForwardReferenceCora(b *testing.B) {
	d := graph.MustByName("cora")
	g := d.Build()
	m := MustModel("gcn", d.FeatureDims, 1)
	x := RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Golden reference forward pass at Reddit scale: the dataset's default
// degree-preserving build (average degree 492) with the real 602→64→41
// feature dims, so the aggregation hot loop dominates like on the full graph.
func BenchmarkForwardReferenceReddit(b *testing.B) {
	d := graph.MustByName("reddit")
	g := d.Build()
	m := MustModel("gcn", d.FeatureDims, 1)
	x := RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// The int8 tier on full-size Cora (sparser, update-dominated).
func BenchmarkForwardReferenceCoraInt8(b *testing.B) {
	benchInt8(b, graph.MustByName("cora"))
}

// The int8 tier at Reddit scale: the same workload as
// BenchmarkForwardReferenceReddit on a quantized model (int8 source rows
// through the integer reduce chains, int8 GEMV updates).
func BenchmarkForwardReferenceRedditInt8(b *testing.B) {
	benchInt8(b, graph.MustByName("reddit"))
}

func benchInt8(b *testing.B, d graph.Dataset) {
	g := d.Build()
	m := MustModel("gcn", d.FeatureDims, 1)
	if err := QuantizeModel(m); err != nil {
		b.Fatal(err)
	}
	x := RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forward(m, g, x); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial vs 8-worker reference execution at Reddit scale. On a single-core
// host both degenerate to the same wall clock (the worker pool adds only
// atomic chunk claims); on multi-core hardware the spread is the row-parallel
// speedup. Outputs are byte-identical by construction.
func BenchmarkForwardReferenceRedditSerial(b *testing.B) {
	benchReferenceRedditWorkers(b, 1)
}

func BenchmarkForwardReferenceRedditParallel8(b *testing.B) {
	benchReferenceRedditWorkers(b, 8)
}

func benchReferenceRedditWorkers(b *testing.B, workers int) {
	d := graph.MustByName("reddit")
	g := d.Build()
	m := MustModel("gcn", d.FeatureDims, 1)
	x := RandomFeatures(g, d.FeatureDims[0], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardParallel(m, g, x, workers); err != nil {
			b.Fatal(err)
		}
	}
}
