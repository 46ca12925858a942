package engine

import (
	"fmt"

	"vgiw/internal/kir"
	"vgiw/internal/mem"
)

// DataEnv is the standard execution environment shared by the VGIW core and
// the SGMF baseline: a launch configuration, flat global memory, per-CTA
// scratchpads, and the memory-system timing model.
type DataEnv struct {
	Launch kir.Launch
	Global []uint32
	Shared [][]uint32 // indexed by CTA
	Sys    *mem.System

	geom *kir.Geom // Launch's division-free geometry (Geometry hook, CTA lookups)
	wr   []bool    // batch scratch for AccessMemVector, reused across waves
}

// NewDataEnv allocates the per-CTA scratchpads for a kernel launch.
func NewDataEnv(k *kir.Kernel, launch kir.Launch, global []uint32, sys *mem.System) (*DataEnv, error) {
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	if len(launch.Params) != k.NumParams {
		return nil, fmt.Errorf("engine: kernel %s wants %d params, launch has %d",
			k.Name, k.NumParams, len(launch.Params))
	}
	shared := make([][]uint32, launch.CTAs())
	for i := range shared {
		shared[i] = make([]uint32, k.SharedWds)
	}
	return &DataEnv{Launch: launch, Global: global, Shared: shared, Sys: sys, geom: launch.NewGeom()}, nil
}

// Hooks builds the engine hooks for this environment. Branch and AccessLV
// start nil; the caller wires them in.
func (d *DataEnv) Hooks() *Hooks {
	return &Hooks{
		Param:           func(i int) uint32 { return d.Launch.Params[i] },
		Geometry:        d.geom.At,
		AccessMem:       d.accessMem,
		AccessMemVector: d.accessMemVector,
		AccessMemFast: func(space Space, addr int64, write bool, value uint32, tid int) (uint32, error) {
			// Functional twin of AccessMem: identical bounds checks, errors
			// and data effects, no timing-model calls.
			switch space {
			case SpaceGlobal:
				if addr < 0 || addr >= int64(len(d.Global)) {
					return 0, fmt.Errorf("engine: thread %d: global %s out of bounds: %d (size %d)",
						tid, rw(write), addr, len(d.Global))
				}
				if write {
					d.Global[addr] = value
					return 0, nil
				}
				return d.Global[addr], nil
			case SpaceShared:
				cta := d.geom.CTAOf(tid)
				sh := d.Shared[cta]
				if addr < 0 || addr >= int64(len(sh)) {
					return 0, fmt.Errorf("engine: thread %d: shared %s out of bounds: %d (size %d)",
						tid, rw(write), addr, len(sh))
				}
				if write {
					sh[addr] = value
					return 0, nil
				}
				return sh[addr], nil
			}
			return 0, fmt.Errorf("engine: unknown address space %d", space)
		},
	}
}

// accessMem is the scalar timing-path memory hook: bounds check, timing-model
// access, then the data effect.
func (d *DataEnv) accessMem(space Space, addr int64, write bool, value uint32, tid int, now int64) (uint32, int64, error) {
	switch space {
	case SpaceGlobal:
		if addr < 0 || addr >= int64(len(d.Global)) {
			return 0, 0, fmt.Errorf("engine: thread %d: global %s out of bounds: %d (size %d)",
				tid, rw(write), addr, len(d.Global))
		}
		done := d.Sys.AccessWord(addr, write, now)
		if write {
			d.Global[addr] = value
			return 0, done, nil
		}
		return d.Global[addr], done, nil
	case SpaceShared:
		cta := d.geom.CTAOf(tid)
		sh := d.Shared[cta]
		if addr < 0 || addr >= int64(len(sh)) {
			return 0, 0, fmt.Errorf("engine: thread %d: shared %s out of bounds: %d (size %d)",
				tid, rw(write), addr, len(sh))
		}
		done := d.Sys.AccessShared(addr, now)
		if write {
			sh[addr] = value
			return 0, done, nil
		}
		return sh[addr], done, nil
	}
	return 0, 0, fmt.Errorf("engine: unknown address space %d", space)
}

// accessMemVector settles a wave's accesses for one memory node in a single
// call, equivalent to accessMem per element in order. The fast path — global
// space, every element in bounds — batches the timing legs through
// mem.(*System).AccessVector and applies the data effects in element order;
// the timing model never reads Global, so the split preserves the serial
// interleaving exactly. Shared space (per-CTA scratchpads have no batched
// timing leg) and out-of-bounds batches fall back to the scalar hook per
// element, stopping at the first failing element exactly as the serial walk
// would.
//
//vgiw:hotpath
func (d *DataEnv) accessMemVector(space Space, addrs []int64, store bool, values []uint32, tids []int, issues []int64, words []uint32, dones []int64) error {
	n := len(addrs)
	if space == SpaceGlobal {
		inBounds := true
		for k := 0; k < n; k++ {
			if addrs[k] < 0 || addrs[k] >= int64(len(d.Global)) {
				inBounds = false
				break
			}
		}
		if inBounds {
			if cap(d.wr) < n {
				d.wr = make([]bool, n+n/2+8)
			}
			wr := d.wr[:n]
			for k := range wr {
				wr[k] = store
			}
			d.Sys.AccessVector(addrs[:n], wr, issues[:n], dones[:n])
			if store {
				for k := 0; k < n; k++ {
					d.Global[addrs[k]] = values[k]
					words[k] = 0
				}
			} else {
				for k := 0; k < n; k++ {
					words[k] = d.Global[addrs[k]]
				}
			}
			return nil
		}
	}
	for k := 0; k < n; k++ {
		w, done, err := d.accessMem(space, addrs[k], store, values[k], tids[k], issues[k])
		if err != nil {
			return err
		}
		words[k], dones[k] = w, done
	}
	return nil
}

func rw(write bool) string {
	if write {
		return "store"
	}
	return "load"
}
