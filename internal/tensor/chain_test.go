package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// chainRef is AxpyChain4's contract: four successive axpy passes.
func chainRef(acc []float32, a [4]float32, x [4][]float32) {
	for i := range a {
		axpyRow(acc, a[i], x[i][:len(acc)])
	}
}

// sameBits compares float32 slices bit for bit. NaN results compare equal to
// any NaN: which operand's payload a NaN-producing add propagates is the
// compiler's choice of operand order, which Go does not specify.
func sameBits(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

func TestAxpyChain4MatchesSequentialAxpy(t *testing.T) {
	sub := math.Float32frombits(1)             // smallest subnormal
	bigSub := math.Float32frombits(0x007fffff) // largest subnormal
	negZero := float32(math.Copysign(0, -1))
	coefs := [][4]float32{
		{0, negZero, 1, 0.7},
		{1, 1, 1, 1},
		{negZero, negZero, negZero, negZero},
		{sub, -sub, bigSub, -1},
		{0.125, -3.5, sub, 1e30},
		{0.31, 0.29, 0.27, 0.23},
	}
	rng := rand.New(rand.NewSource(41))
	special := []float32{0, negZero, 1, -1, sub, -sub, bigSub, 1e-38, 3e38, -3e38}
	for n := 0; n <= 37; n++ {
		for ci, a := range coefs {
			var x [4][]float32
			for i := range x {
				x[i] = RandomVector(rng, n, 1)
				for j := range x[i] {
					if rng.Intn(4) == 0 {
						x[i][j] = special[rng.Intn(len(special))]
					}
				}
			}
			acc := RandomVector(rng, n, 1)
			for j := range acc {
				if rng.Intn(5) == 0 {
					acc[j] = special[rng.Intn(len(special))]
				}
			}
			want := append([]float32(nil), acc...)
			chainRef(want, a, x)
			AxpyChain4(acc, a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3])
			if j := sameBits(acc, want); j >= 0 {
				t.Fatalf("n=%d coefs %d: acc[%d] = %#x, sequential axpy = %#x",
					n, ci, j, math.Float32bits(acc[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// VecMatInto blocks its non-zero inputs four at a time; it must equal one
// axpy per non-zero x[k] in ascending k for every count of non-zeros mod 4.
func TestVecMatIntoMatchesPerRowAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cols := range []int{1, 7, 8, 13, 64} {
		a := RandomMatrix(rng, 23, cols, 1)
		for nz := 0; nz <= 23; nz++ {
			x := make([]float32, 23)
			for _, k := range rng.Perm(23)[:nz] {
				x[k] = rng.Float32() - 0.5
			}
			want := make([]float32, cols)
			for k, xv := range x {
				if xv != 0 {
					axpyRow(want, xv, a.Row(k))
				}
			}
			got := make([]float32, cols)
			VecMatInto(got, x, a)
			if j := sameBits(got, want); j >= 0 {
				t.Fatalf("cols=%d nz=%d: out[%d] = %g, per-row axpy = %g", cols, nz, j, got[j], want[j])
			}
		}
	}
}

// FuzzAxpyChain4 runs the differential check on arbitrary float bits: data
// holds the rows interleaved (acc, x0, x1, x2, x3 per element), the four
// coefficients are raw bit patterns.
func FuzzAxpyChain4(f *testing.F) {
	seed := func(a0, a1, a2, a3 uint32, vals ...uint32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		f.Add(b, a0, a1, a2, a3)
	}
	one, negZero := math.Float32bits(1), uint32(0x80000000)
	seed(0, negZero, one, 1)
	seed(one, one, one, one, 0x3f800000, 0x40000000, 0x40400000, 0x40800000, 0x40a00000)
	seed(1, 0x807fffff, 0x7f7fffff, 0xff800000, make([]uint32, 5*11)...)
	seed(0x7fc00001, one, 0, negZero, 0x7f800000, 0xff800000, 0x7fa00000, 1, negZero)
	f.Fuzz(func(t *testing.T, data []byte, a0, a1, a2, a3 uint32) {
		n := len(data) / 20
		var x [4][]float32
		for i := range x {
			x[i] = make([]float32, n)
		}
		acc := make([]float32, n)
		for j := 0; j < n; j++ {
			e := data[20*j:]
			acc[j] = math.Float32frombits(binary.LittleEndian.Uint32(e))
			for i := range x {
				x[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(e[4+4*i:]))
			}
		}
		a := [4]float32{
			math.Float32frombits(a0), math.Float32frombits(a1),
			math.Float32frombits(a2), math.Float32frombits(a3),
		}
		want := append([]float32(nil), acc...)
		chainRef(want, a, x)
		AxpyChain4(acc, a[0], a[1], a[2], a[3], x[0], x[1], x[2], x[3])
		if j := sameBits(acc, want); j >= 0 {
			t.Fatalf("n=%d: acc[%d] = %#x, sequential axpy = %#x",
				n, j, math.Float32bits(acc[j]), math.Float32bits(want[j]))
		}
	})
}
