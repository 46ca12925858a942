package vgiw

import (
	"fmt"
	"testing"

	"vgiw/internal/kir"
)

// geometryOps lists every geometry opcode, in the order the geometry kernel
// stores them.
var geometryOps = []kir.Op{
	kir.OpTID, kir.OpTIDX, kir.OpTIDY, kir.OpCTAX, kir.OpCTAY,
	kir.OpNTIDX, kir.OpNTIDY, kir.OpNCTAX, kir.OpNCTAY,
}

// buildGeometryKernel stores every geometry value of every thread at
// out[tid*9+i]. In the divergent variant odd and even threads store from
// different blocks, so the SIMT core resolves geometry under partial masks
// and VGIW runs several blocks; the straight-line variant fits SGMF.
func buildGeometryKernel(divergent bool) *Kernel {
	b := NewKernelBuilder("geometry")
	b.SetParams(1)
	store := func() {
		base := b.Add(b.Param(0), b.MulI(b.Tid(), int32(len(geometryOps))))
		vals := []Reg{b.Tid(), b.TidX(), b.TidY(), b.CtaX(), b.CtaY(),
			b.NTidX(), b.NTidY(), b.NCtaX(), b.NCtaY()}
		for i, v := range vals {
			b.Store(base, int32(i), v)
		}
	}
	entry := b.NewBlock("entry")
	b.SetBlock(entry)
	if !divergent {
		store()
		b.Ret()
		return b.MustBuild()
	}
	odd := b.NewBlock("odd")
	even := b.NewBlock("even")
	exit := b.NewBlock("exit")
	b.Branch(b.And(b.Tid(), b.Const(1)), odd, even)
	for _, blk := range []*kir.Block{odd, even} {
		b.SetBlock(blk)
		store()
		b.Jump(exit)
	}
	b.SetBlock(exit)
	b.Ret()
	return b.MustBuild()
}

// geometryLaunches covers non-power-of-two block and grid sizes, 2-D blocks
// and grids, and CTAs that are not a multiple of the warp size (a partial
// last warp).
var geometryLaunches = []Launch{
	{GridX: 13, GridY: 1, BlockX: 100, BlockY: 1},
	{GridX: 5, GridY: 3, BlockX: 7, BlockY: 5},
	{GridX: 3, GridY: 2, BlockX: 24, BlockY: 3},
	{GridX: 1, GridY: 7, BlockX: 1, BlockY: 33},
	{GridX: 6, GridY: 4, BlockX: 16, BlockY: 16},
}

// TestGeometryMatchesReference checks every division-free geometry path
// against kir.Launch.Geometry, the reference, for every geometry opcode:
// kir.Geom.At directly, the SIMT core's per-warp tables and CTA-uniform
// values (under divergence), and the engine's geometry nodes on VGIW (timed
// and fast, over several tiles) and SGMF.
func TestGeometryMatchesReference(t *testing.T) {
	k, straight := buildGeometryKernel(true), buildGeometryKernel(false)
	for _, launch := range geometryLaunches {
		launch.Params = []uint32{0}
		name := fmt.Sprintf("grid%dx%d/block%dx%d", launch.GridX, launch.GridY, launch.BlockX, launch.BlockY)
		n := launch.Threads()
		want := make([]uint32, n*len(geometryOps))
		for tid := 0; tid < n; tid++ {
			for i, op := range geometryOps {
				want[tid*len(geometryOps)+i] = launch.Geometry(op, tid)
			}
		}
		g := launch.NewGeom()
		for tid := 0; tid < n; tid++ {
			for i, op := range geometryOps {
				if got := g.At(op, tid); got != want[tid*len(geometryOps)+i] {
					t.Fatalf("%s: Geom.At(%v, %d) = %d, Launch.Geometry = %d", name, op, tid, got, want[tid*len(geometryOps)+i])
				}
			}
		}

		// Tiles of a few CTAs: the CVT budget covers 64 threads per block.
		tiled := DefaultVGIWConfig()
		tiled.CVTCapacityBits = 64 * len(k.Blocks)
		fast := tiled
		fast.Engine.Fast = true
		runs := []struct {
			backend string
			run     func(global []uint32) error
		}{
			{"simt", func(global []uint32) error {
				_, err := RunSIMT(k.Clone(), launch, global, nil)
				return err
			}},
			{"vgiw", func(global []uint32) error {
				res, err := RunVGIW(k.Clone(), launch, global, &tiled)
				if err == nil && res.Tiles < 2 {
					err = fmt.Errorf("ran %d tile(s), want several", res.Tiles)
				}
				return err
			}},
			{"vgiw-fast", func(global []uint32) error {
				_, err := RunVGIW(k.Clone(), launch, global, &fast)
				return err
			}},
			{"sgmf", func(global []uint32) error {
				_, err := RunSGMF(straight.Clone(), launch, global, nil)
				return err
			}},
		}
		for _, rc := range runs {
			global := make([]uint32, len(want))
			if err := rc.run(global); err != nil {
				t.Fatalf("%s/%s: %v", name, rc.backend, err)
			}
			for j := range want {
				if global[j] != want[j] {
					tid, i := j/len(geometryOps), j%len(geometryOps)
					t.Fatalf("%s/%s: thread %d %v = %d, Launch.Geometry = %d",
						name, rc.backend, tid, geometryOps[i], global[j], want[j])
				}
			}
		}
	}
}
