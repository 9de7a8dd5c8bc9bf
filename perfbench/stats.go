package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for
// an even count) and NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread rule is stated in. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython: position i*(n+1)/4 in
		// 1-based order statistics, the bracketing pair clamped to
		// [1, n-1] and interpolated (or extrapolated) linearly.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates tailPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at least
// ten samples beyond it, so the reported tail rests on more than a few
// outliers; ok is false when even the median lacks ten samples above it
// (fewer than 20 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p, true
		}
	}
	return 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
