package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported percentile
// for it to mean anything: p99 wants at least 1000 samples so that 10 are
// slower. Below that the rank collapses onto the slowest few samples and
// the number is weather.
const minTailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and whether at least minTailSamples samples lie beyond it.
func percentile(sorted []uint32, p float64) (v float64, trusted bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1]), n-rank >= minTailSamples
}

// median of xs (not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, which
// is what the acceptance driver computes spreads with. A single value is
// both its quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread summarizes repeated measurements of one metric.
type spread struct {
	Median, Q1, Q3, Min, Max float64
}

func newSpread(xs []float64) spread {
	s := spread{Median: median(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

// IQR is (Q3-Q1)/median, the acceptance driver's spread.
func (s spread) IQR() float64 { return (s.Q3 - s.Q1) / s.Median }

// Range is (max-min)/median.
func (s spread) Range() float64 { return (s.Max - s.Min) / s.Median }
