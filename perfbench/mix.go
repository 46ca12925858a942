package main

import (
	"fmt"
	"math/rand"

	"vgiw/internal/bench"
	"vgiw/internal/kasm"
	"vgiw/internal/kernels"
)

// JobKind classifies one job of the daemon-mixed traffic.
type JobKind int

const (
	// Fresh is a scale-1 kernel job at a design point no earlier job used.
	Fresh JobKind = iota
	// Repeat resubmits the spec of an earlier, completed fresh job of the
	// same client, so the daemon's result store answers it.
	Repeat
	// Source is a kasm compile job: nothing is simulated.
	Source
)

func (k JobKind) String() string {
	return [...]string{"fresh", "repeat", "source"}[k]
}

// Block is the mix's unit of stratification: every block of blockLen jobs
// of one client holds exactly these counts, in a seeded order, so the
// declared shares hold exactly at every block boundary and two seeds differ
// only in which jobs they draw, not in how many of each kind.
const (
	blockLen     = 20
	blockFresh   = 11 // 55%
	blockRepeat  = 6  // 30%
	blockSource  = 3  // 15%
	blockFast    = 3  // of the fresh jobs, run in functional (fast) mode
	lvcMinKB     = 16
	lvcMaxKB     = 128
	mixScale     = 1
	fleetDupFrac = 10 // one duplicate task per this many unique tasks
)

// cvtChoices are the CVT bit budgets fresh design points draw from.
var cvtChoices = []int{1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}

// MixJob is one job of a client's stream.
type MixJob struct {
	Kind JobKind
	Spec bench.JobSpec
	// Of is the stream index of the fresh job a Repeat resubmits (-1
	// otherwise).
	Of int
	// Kernel names the registry kernel a Source job's text comes from.
	Kernel string
}

// designKey identifies a simulation: two fresh specs with equal keys would
// compute the same result, so fresh design points never share one.
type designKey struct {
	kernel   string
	lvcKB    int
	cvtBits  int
	mem      string
	fastMode bool
}

func keyOf(s bench.JobSpec) designKey {
	return designKey{s.Kernel, s.LVCKB, s.CVTBits, s.Mem, s.Fast}
}

// mixGen draws fresh design points without ever repeating one.
type mixGen struct {
	rng   *rand.Rand
	names []string
	used  map[designKey]bool
}

func newMixGen(seed int64) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed)), names: kernels.Names(), used: map[designKey]bool{}}
}

// fresh draws an unused design point for kernel.
func (g *mixGen) fresh(kernel string, fast bool) bench.JobSpec {
	for {
		s := bench.JobSpec{
			Kernel:  kernel,
			Scale:   mixScale,
			LVCKB:   lvcMinKB + g.rng.Intn(lvcMaxKB-lvcMinKB+1),
			CVTBits: cvtChoices[g.rng.Intn(len(cvtChoices))],
			Fast:    fast,
		}
		if g.rng.Intn(2) == 1 {
			s.Mem = "writethrough"
		}
		if k := keyOf(s); !g.used[k] {
			g.used[k] = true
			return s
		}
	}
}

// kernelCycle deals registry kernels in seeded permutations, one whole
// permutation before the next, so every kernel appears equally often.
type kernelCycle struct {
	g    *mixGen
	perm []int
}

func (c *kernelCycle) next() string {
	if len(c.perm) == 0 {
		c.perm = c.g.rng.Perm(len(c.g.names))
	}
	k := c.g.names[c.perm[0]]
	c.perm = c.perm[1:]
	return k
}

// DaemonMix generates the job streams of `clients` closed-loop clients,
// perClient jobs each (rounded up to whole blocks), plus one warm-up fresh
// job per registry kernel that the set-up phase runs before measuring. The
// same seed gives the identical streams; no two fresh jobs, warm-up
// included, share a design point.
func DaemonMix(seed int64, clients, perClient int) (warm []bench.JobSpec, streams [][]MixJob) {
	g := newMixGen(seed)
	for _, name := range g.names {
		warm = append(warm, g.fresh(name, false))
	}
	blocks := (perClient + blockLen - 1) / blockLen
	for c := 0; c < clients; c++ {
		kc := &kernelCycle{g: g}
		sc := &kernelCycle{g: g}
		var stream []MixJob
		var freshIdx []int
		for b := 0; b < blocks; b++ {
			kinds := make([]JobKind, 0, blockLen)
			for i := 0; i < blockFresh; i++ {
				kinds = append(kinds, Fresh)
			}
			for i := 0; i < blockRepeat; i++ {
				kinds = append(kinds, Repeat)
			}
			for i := 0; i < blockSource; i++ {
				kinds = append(kinds, Source)
			}
			g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			if b == 0 {
				// A repeat needs an earlier fresh job to repeat.
				for i, k := range kinds {
					if k == Fresh {
						kinds[0], kinds[i] = kinds[i], kinds[0]
						break
					}
				}
			}
			fastLeft := blockFast
			freshLeft := blockFresh
			for _, k := range kinds {
				j := MixJob{Kind: k, Of: -1}
				switch k {
				case Fresh:
					fast := g.rng.Intn(freshLeft) < fastLeft
					if fast {
						fastLeft--
					}
					freshLeft--
					j.Spec = g.fresh(kc.next(), fast)
					freshIdx = append(freshIdx, len(stream))
				case Repeat:
					j.Of = freshIdx[g.rng.Intn(len(freshIdx))]
					j.Spec = stream[j.Of].Spec
				case Source:
					j.Kernel = sc.next()
				}
				stream = append(stream, j)
			}
		}
		streams = append(streams, stream)
	}
	return warm, streams
}

// SourceText renders a registry kernel as kasm with a trailing comment that
// makes the text — and so the job's content key — unique to (tag, n), while
// the compiled result stays that of the kernel.
func SourceText(w *kernels.Workload, tag string, n int) string {
	return fmt.Sprintf("%s# perfbench %s %d\n", kasm.Print(w.Kernel()), tag, n)
}

// FleetMatrix generates a fleet-sweep matrix: every registry kernel at each
// of `sizes` distinct seeded LVC capacities (scale 1), in a seeded order,
// plus one duplicate of an earlier task per fleetDupFrac unique tasks.
func FleetMatrix(seed int64, sizes int) []bench.JobSpec {
	g := newMixGen(seed)
	kbs := g.rng.Perm(lvcMaxKB - lvcMinKB + 1)[:sizes]
	var uniq []bench.JobSpec
	for _, name := range g.names {
		for _, kb := range kbs {
			uniq = append(uniq, bench.JobSpec{Kernel: name, Scale: mixScale, LVCKB: lvcMinKB + kb})
		}
	}
	g.rng.Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	out := append([]bench.JobSpec(nil), uniq...)
	for d := 0; d < len(uniq)/fleetDupFrac; d++ {
		at := 1 + g.rng.Intn(len(out)-1)
		dup := out[g.rng.Intn(at)]
		out = append(out[:at], append([]bench.JobSpec{dup}, out[at:]...)...)
	}
	return out
}
