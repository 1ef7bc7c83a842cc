package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandomMatrix(rng, 128, 128, 1)
	y := RandomMatrix(rng, 128, 128, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkVecMat1433x16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w := RandomMatrix(rng, 1433, 16, 1) // the Cora layer-1 GEMV
	x := RandomVector(rng, 1433, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		VecMat(x, w)
	}
}

// The four-edge reduce chain against the four per-edge axpy passes it
// replaces, at the Reddit feature width (602) and a hidden width (64).
func BenchmarkAxpyChain4(b *testing.B) {
	for _, n := range []int{602, 64} {
		rng := rand.New(rand.NewSource(3))
		acc := RandomVector(rng, n, 1)
		x0, x1 := RandomVector(rng, n, 1), RandomVector(rng, n, 1)
		x2, x3 := RandomVector(rng, n, 1), RandomVector(rng, n, 1)
		b.Run(fmt.Sprintf("chain/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AxpyChain4(acc, 0.25, -0.5, 0.125, 0.75, x0, x1, x2, x3)
			}
		})
		b.Run(fmt.Sprintf("axpy4/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				axpyRow(acc, 0.25, x0)
				axpyRow(acc, -0.5, x1)
				axpyRow(acc, 0.125, x2)
				axpyRow(acc, 0.75, x3)
			}
		})
	}
}
