package main

import "testing"

func TestTailPerMille(t *testing.T) {
	cases := []struct {
		n      int
		want   int
		wantOK bool
	}{
		{10000, 999, true}, // 10 beyond p99.9
		{9999, 990, true},  // p99.9 leaves 9
		{1000, 990, true},  // exactly 10 beyond p99
		{999, 950, true},   // p99 leaves 9
		{200, 950, true},
		{100, 900, true},
		{40, 750, true},
		{39, 500, true},
		{20, 500, true},
		{19, 500, false}, // even the median has only 9 beyond
		{0, 500, false},
	}
	for _, c := range cases {
		got, ok := tailPerMille(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPerMille(%d) = %d,%v; want %d,%v", c.n, got, ok, c.want, c.wantOK)
		}
		if ok && c.n-rankOf(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d beyond", c.n, got, c.n-rankOf(got, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 500}, {990, 990}, {999, 999}, {1000, 1000}, {0, 1}} {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("p%d = %v, want %v", c.pm, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
