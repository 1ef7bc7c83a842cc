package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Build sorts each adjacency row with slices.Sort. Sorting int32 keys has
// one result whatever the algorithm, so on random multigraphs — duplicate
// edges and self loops included — every row must equal the same sources
// collected in insertion order and ordered with sort.Slice.
func TestBuildSortMatchesSortSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		b := NewBuilder(n)
		rows := make([][]int32, n)
		for i, m := 0, rng.Intn(8*n); i < m; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				src = dst // self loop
			case 1:
				b.AddEdge(src, dst) // duplicate edge
				rows[dst] = append(rows[dst], int32(src))
			}
			b.AddEdge(src, dst)
			rows[dst] = append(rows[dst], int32(src))
		}
		g := b.Build("multi")
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for v, row := range rows {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			if got := g.InNeighbors(v); !slices.Equal(got, row) {
				t.Fatalf("seed %d vertex %d: row %v, want %v", seed, v, got, row)
			}
		}
	}
}
