package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a·b. Panics on inner-dimension mismatch. Allocating
// wrapper over MatMulInto; hot paths use the Into/Parallel variants.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	matMulRowsInto(out, a, b, 0, a.Rows)
	return out
}

// MatVec returns a·x for a Rows×Cols matrix and a Cols-vector. Allocating
// wrapper over MatVecInto.
func MatVec(a *Matrix, x []float32) []float32 {
	out := make([]float32, a.Rows)
	MatVecInto(out, a, x)
	return out
}

// VecMat returns xᵀ·a for a Rows-vector and a Rows×Cols matrix. This is the
// orientation the accelerators use (feature-vector times weight matrix).
// Allocating wrapper over VecMatInto.
func VecMat(x []float32, a *Matrix) []float32 {
	out := make([]float32, a.Cols)
	VecMatInto(out, x, a)
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot %d · %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place with the bounds-check-free axpyRow
// kernel.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy %d into %d", len(x), len(y)))
	}
	axpyRow(y, alpha, x)
}

// Add returns a+b as a new vector. Allocating wrapper over AddInto.
func Add(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: add %d + %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	AddInto(out, a, b)
	return out
}

// Scale multiplies x by alpha in place and returns x.
func Scale(alpha float32, x []float32) []float32 {
	for i := range x {
		x[i] *= alpha
	}
	return x
}

// Hadamard returns the elementwise product of a and b. Allocating wrapper
// over HadamardInto.
func Hadamard(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: hadamard %d ⊙ %d", len(a), len(b)))
	}
	out := make([]float32, len(a))
	HadamardInto(out, a, b)
	return out
}

// Concat returns the concatenation [a ; b].
func Concat(a, b []float32) []float32 {
	out := make([]float32, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// MaxElems writes elementwise max(acc, x) into acc.
func MaxElems(acc, x []float32) {
	if len(acc) != len(x) {
		panic(fmt.Sprintf("tensor: max %d vs %d", len(acc), len(x)))
	}
	for i, v := range x {
		if v > acc[i] {
			acc[i] = v
		}
	}
}

// ReLU applies max(0, x) in place and returns x.
func ReLU(x []float32) []float32 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

// ReLUMat applies ReLU to every element of m in place and returns m.
func ReLUMat(m *Matrix) *Matrix {
	ReLU(m.Data)
	return m
}

// Sigmoid applies the logistic function in place and returns x.
func Sigmoid(x []float32) []float32 {
	for i, v := range x {
		x[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return x
}

// Tanh applies tanh in place and returns x.
func Tanh(x []float32) []float32 {
	for i, v := range x {
		x[i] = float32(math.Tanh(float64(v)))
	}
	return x
}

// LeakyReLU applies max(alpha*x, x) in place and returns x.
func LeakyReLU(alpha float32, x []float32) []float32 {
	for i, v := range x {
		if v < 0 {
			x[i] = alpha * v
		}
	}
	return x
}

// Softmax normalizes x into a probability distribution in place, using the
// max-subtraction trick for stability, and returns x.
func Softmax(x []float32) []float32 {
	if len(x) == 0 {
		return x
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - max))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
	return x
}

// Sum returns the sum of the elements of x.
func Sum(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}
