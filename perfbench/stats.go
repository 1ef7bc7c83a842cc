package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read from fewer points is one outlier, not a percentile.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles in per-mille, highest
// first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rankOf returns the 1-based nearest rank of the per-mille percentile pm in
// n samples: the smallest rank r with r/n ≥ pm/1000. Integer arithmetic
// keeps 99.9% of 1000 at rank 999, where float math rounds up to 1000.
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPerMille returns the highest ladder percentile that has at least
// minBeyond samples beyond it in n samples, and false when even the median
// has fewer (the median is returned then).
func tailPerMille(n int) (int, bool) {
	for _, pm := range tailLadder {
		if n-rankOf(pm, n) >= minBeyond {
			return pm, true
		}
	}
	return 500, false
}

// percentile returns the nearest-rank per-mille percentile of sorted
// (ascending) values.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(pm, len(sorted))-1]
}

// median returns the middle of xs (the mean of the middle two for even
// counts) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
