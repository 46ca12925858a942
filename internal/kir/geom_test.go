package kir

import (
	"math"
	"testing"
)

// TestDividerExact checks the multiply-high quotient against integer
// division across divisors (1, powers of two, odd, near 2^32) and dividends
// at both ends of the 32-bit range plus a pseudo-random sweep.
func TestDividerExact(t *testing.T) {
	divisors := []int{1, 2, 3, 5, 7, 24, 32, 35, 100, 1000, 1 << 16, 65537, math.MaxInt32, math.MaxUint32}
	x := uint64(0x9e3779b97f4a7c15)
	for _, d := range divisors {
		v := newDivider(d)
		check := func(n uint64) {
			if got, want := v.div(n), n/uint64(d); got != want {
				t.Fatalf("%d / %d = %d, want %d", n, d, got, want)
			}
		}
		for n := uint64(0); n < 4096; n++ {
			check(n)
			check(math.MaxUint32 - n)
		}
		for i := 0; i < 100000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			check(x & math.MaxUint32)
		}
	}
}

// TestGeomMatchesGeometry checks Geom.At against Launch.Geometry for every
// geometry opcode and every thread of a range of launches, including unit
// and non-power-of-two dimensions.
func TestGeomMatchesGeometry(t *testing.T) {
	ops := []Op{OpTID, OpTIDX, OpTIDY, OpCTAX, OpCTAY, OpNTIDX, OpNTIDY, OpNCTAX, OpNCTAY}
	launches := []Launch{
		Launch1D(1, 1),
		Launch1D(3, 1),
		Launch1D(1, 96),
		Launch1D(17, 33),
		{GridX: 5, GridY: 3, BlockX: 7, BlockY: 5},
		{GridX: 1, GridY: 9, BlockX: 12, BlockY: 1},
		{GridX: 4, GridY: 4, BlockX: 16, BlockY: 16},
	}
	for _, l := range launches {
		g := l.NewGeom()
		for tid := 0; tid < l.Threads(); tid++ {
			if got, want := g.CTAOf(tid), l.CTAOf(tid); got != want {
				t.Fatalf("%+v: CTAOf(%d) = %d, want %d", l, tid, got, want)
			}
			for _, op := range ops {
				if got, want := g.At(op, tid), l.Geometry(op, tid); got != want {
					t.Fatalf("%+v: At(%v, %d) = %d, want %d", l, op, tid, got, want)
				}
			}
		}
	}
}
