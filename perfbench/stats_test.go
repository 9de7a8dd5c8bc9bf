package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 4, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v, want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}
