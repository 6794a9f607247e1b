package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of ascending samples:
// the smallest sample with at least q·n samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(q, len(sorted))
	return sorted[rank-1]
}

func nearestRank(q float64, n int) int {
	// The epsilon keeps 0.99·1000 from rounding up to rank 991.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// weightedPercentile returns the smallest value whose cumulative weight
// reaches q of the total.
func weightedPercentile(vals, weights []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	idx := make([]int, len(vals))
	var total float64
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	var cum float64
	for _, i := range idx {
		if cum += weights[i]; cum >= q*total*(1-1e-12) {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

// supported reports whether the q-quantile of n samples has at least
// ten samples beyond it: a tail percentile is reported only when that
// many observations back it.
func supported(q float64, n int) bool {
	return n > 0 && n-nearestRank(q, n) >= 10
}

// tailQuantile is the highest of the usual percentiles that n samples
// support under the ten-samples-beyond rule (0 when not even the median
// is supported).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if supported(q, n) {
			return q
		}
	}
	return 0
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads printed here match the ones a Python
// script computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
