package core

import (
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
)

// Simulator throughput: one full 2-layer GCN/Cora timing run.
func BenchmarkRunGCNCora(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("cora")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// The heavy case: full-size Reddit profile (114M edges as degrees).
func BenchmarkRunGCNReddit(b *testing.B) {
	s := MustNew(DefaultConfig())
	d := graph.MustByName("reddit")
	m := gnn.MustModel("gcn", d.FeatureDims, 1)
	p := d.Profile()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}
