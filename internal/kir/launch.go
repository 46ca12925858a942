package kir

import (
	"fmt"
	"math/bits"
)

// Launch describes one kernel invocation: a CUDA-style 2-D grid of 2-D
// thread blocks (CTAs) plus scalar parameters. Threads are identified by a
// global linear thread ID; geometry opcodes recover the per-axis coordinates.
type Launch struct {
	GridX, GridY   int // CTAs per axis
	BlockX, BlockY int // threads per CTA per axis
	Params         []uint32
}

// Launch1D is the common case: gridX CTAs of blockX threads.
func Launch1D(gridX, blockX int, params ...uint32) Launch {
	return Launch{GridX: gridX, GridY: 1, BlockX: blockX, BlockY: 1, Params: params}
}

// Threads reports the total number of threads in the launch.
func (l Launch) Threads() int { return l.GridX * l.GridY * l.BlockX * l.BlockY }

// CTAs reports the number of thread blocks in the launch.
func (l Launch) CTAs() int { return l.GridX * l.GridY }

// CTASize reports the number of threads per CTA.
func (l Launch) CTASize() int { return l.BlockX * l.BlockY }

// Validate checks that all dimensions are positive.
func (l Launch) Validate() error {
	if l.GridX <= 0 || l.GridY <= 0 || l.BlockX <= 0 || l.BlockY <= 0 {
		return fmt.Errorf("launch dimensions must be positive: grid %dx%d block %dx%d",
			l.GridX, l.GridY, l.BlockX, l.BlockY)
	}
	return nil
}

// Geometry resolves a geometry opcode for the given global linear thread ID.
// Thread IDs are laid out CTA-major: consecutive IDs fill a CTA (x fastest),
// then move to the next CTA (grid x fastest).
func (l Launch) Geometry(op Op, tid int) uint32 {
	if op == OpTID {
		// The common opcode is the identity; skip the CTA div/mod entirely
		// (integer division is the most expensive thing in this function,
		// and TID is on the engine's per-thread hot path).
		return uint32(tid)
	}
	ctaSize := l.CTASize()
	cta := tid / ctaSize
	local := tid % ctaSize
	switch op {
	case OpTIDX:
		return uint32(local % l.BlockX)
	case OpTIDY:
		return uint32(local / l.BlockX)
	case OpCTAX:
		return uint32(cta % l.GridX)
	case OpCTAY:
		return uint32(cta / l.GridX)
	case OpNTIDX:
		return uint32(l.BlockX)
	case OpNTIDY:
		return uint32(l.BlockY)
	case OpNCTAX:
		return uint32(l.GridX)
	case OpNCTAY:
		return uint32(l.GridY)
	}
	panic(fmt.Sprintf("kir: %v is not a geometry opcode", op))
}

// CTAOf reports the CTA index of a global thread ID.
func (l Launch) CTAOf(tid int) int { return tid / l.CTASize() }

// Geom is a launch's geometry precomputed so that resolving a geometry
// opcode divides nothing: TIDX/TIDY come from per-launch tables indexed by
// the CTA-local thread index, and the CTA index and the grid coordinates come
// from exact multiply-high quotients. Geometry stays the reference; Geom.At
// returns the same value for every opcode and thread ID.
type Geom struct {
	l       Launch
	ctaSize int
	cta     divider // by CTASize
	gridX   divider // by GridX
	// TIDX and TIDY hold the x/y coordinate of every CTA-local thread index
	// (CTASize entries each).
	TIDX, TIDY []uint32
}

// NewGeom builds the launch's geometry tables.
func (l Launch) NewGeom() *Geom {
	n := l.CTASize()
	g := &Geom{l: l, ctaSize: n, cta: newDivider(n), gridX: newDivider(l.GridX),
		TIDX: make([]uint32, n), TIDY: make([]uint32, n)}
	x, y := uint32(0), uint32(0)
	for i := 0; i < n; i++ {
		g.TIDX[i], g.TIDY[i] = x, y
		if x++; int(x) == l.BlockX {
			x, y = 0, y+1
		}
	}
	return g
}

// CTAOf reports the CTA index of a global thread ID.
func (g *Geom) CTAOf(tid int) int { return int(g.cta.div(uint64(tid))) }

// At resolves a geometry opcode for a global linear thread ID, exactly as
// Launch.Geometry does.
func (g *Geom) At(op Op, tid int) uint32 {
	if op == OpTID {
		return uint32(tid)
	}
	cta := g.CTAOf(tid)
	switch op {
	case OpTIDX:
		return g.TIDX[tid-cta*g.ctaSize]
	case OpTIDY:
		return g.TIDY[tid-cta*g.ctaSize]
	case OpCTAX:
		return uint32(cta - int(g.gridX.div(uint64(cta)))*g.l.GridX)
	case OpCTAY:
		return uint32(g.gridX.div(uint64(cta)))
	}
	return g.l.Geometry(op, tid) // launch constants and the non-geometry panic
}

// divider divides 32-bit dividends by a fixed positive divisor with one
// multiply-high instead of a division: n/d == hi64(m·n) for every n < 2^32
// when m = ⌈2^64/d⌉ (Lemire, Kaser & Kurz, "Faster remainder by direct
// computation", 2019). d == 1 would need m = 2^64, so it is special-cased.
type divider struct{ d, m uint64 }

func newDivider(d int) divider {
	if d <= 1 {
		return divider{d: 1}
	}
	return divider{d: uint64(d), m: ^uint64(0)/uint64(d) + 1}
}

func (v divider) div(n uint64) uint64 {
	if v.d == 1 {
		return n
	}
	hi, _ := bits.Mul64(v.m, n)
	return hi
}
