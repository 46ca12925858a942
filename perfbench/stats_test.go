package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSummarizeQuartilesMatchPython pins the quartiles to the values
// Python's statistics.quantiles(v, n=4) gives for the same vectors.
func TestSummarizeQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v         []float64
		q1, m, q3 float64
		n         int
	}{
		{seq(9), 2.5, 5, 7.5, 9},
		{[]float64{3.1, 0.4, 9.7, 2.2, 5.5, 7.0}, 1.75, 4.3, 7.675, 6},
		{[]float64{12.5, 11.0, 13.25, 10.0, 40.0, 11.5, 12.0}, 11.0, 12.0, 13.25, 7},
	}
	for _, c := range cases {
		s := Summarize(c.v)
		if s.N != c.n || !near(s.Q1, c.q1) || !near(s.Median, c.m) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = n %d q1 %g median %g q3 %g; want n %d q1 %g median %g q3 %g",
				c.v, s.N, s.Q1, s.Median, s.Q3, c.n, c.q1, c.m, c.q3)
		}
	}
}

// TestSummarizeTail checks that the tail percentile is the highest with at
// least ten samples beyond it, falling back to the median for small sets.
func TestSummarizeTail(t *testing.T) {
	cases := []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{5, 50, 3},      // too few for any tail: the median stands in
		{25, 50, 13},    // p90 would have 2 samples beyond it
		{99, 50, 50},    // p90 would have 9
		{100, 90, 90.9}, // p90 has exactly 10 beyond
		{200, 95, 190.95},
		{1000, 99, 990.99},
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.TailP != c.tailP || !near(s.Tail, c.tail) {
			t.Errorf("n=%d: tail p%g = %g; want p%g = %g", c.n, s.TailP, s.Tail, c.tailP, c.tail)
		}
	}
}

func TestSummarizeEdges(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty: %+v", s)
	}
	if s := Summarize([]float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 || s.Tail != 4 {
		t.Errorf("single: %+v", s)
	}
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Summarize reordered its input: %v", in)
	}
}
