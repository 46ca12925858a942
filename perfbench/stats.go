package main

import (
	"math"
	"sort"
)

// Summary describes one timing sample set the way the benchmark reports it:
// the median, the quartiles, and the highest percentile that still has at
// least ten samples beyond it, with the sample count.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// TailP is the highest percentile of tailLadder with at least
	// minBeyond samples above it, or 50 when only the median qualifies.
	TailP float64
	Tail  float64
}

// tailLadder lists the candidate tail percentiles, lowest first.
var tailLadder = []float64{90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// Summarize computes the Summary of xs (which it does not modify). An empty
// set summarizes to the zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), TailP: 50}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Median = median(v)
	s.Q1 = quantile(v, 25)
	s.Q3 = quantile(v, 75)
	s.Tail = s.Median
	for _, p := range tailLadder {
		if beyond(p, len(v)) >= minBeyond {
			s.TailP, s.Tail = p, quantile(v, p)
		}
	}
	return s
}

// beyond counts the samples of an n-sample set that lie above its p-th
// percentile rank.
func beyond(p float64, n int) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// median of sorted v.
func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quantile is the p-th percentile of sorted v by the "exclusive" method
// (position p/100·(n+1), linear interpolation, clamped to the extremes) —
// the method of Python's statistics.quantiles, so the quartiles here match
// the spread computation applied to the benchmark's results.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	h := p / 100 * float64(n+1)
	if h <= 1 {
		return v[0]
	}
	if h >= float64(n) {
		return v[n-1]
	}
	j := int(h)
	frac := h - float64(j)
	return v[j-1] + frac*(v[j]-v[j-1])
}

// percentile is the p-th percentile of an unsorted sample set (0 when
// empty), by the same method as the quartiles.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return quantile(v, p)
}

// medianOf is the median of an unsorted sample set (0 when empty).
func medianOf(xs []float64) float64 { return Summarize(xs).Median }
