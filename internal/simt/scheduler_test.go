package simt

import (
	"fmt"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kir"
)

// TestGTOGreedySurvivesCompaction pins the greedy-target tracking across
// warp-list compaction. The greedy target must be tracked by identity: before
// the fix it was stored as a warp ID and used as an index into r.warps, so
// after compact() renumbered the list the "greedy" pick silently switched to
// whichever warp inherited the index.
func TestGTOGreedySurvivesCompaction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	k := buildDiamond()
	r := &run{m: NewMachine(cfg), k: k, prog: decode(k), res: &Result{}}
	r.initSched()

	// Ten warps: 0..7 retired, 8 live but stalled far in the future, 9 live
	// and ready. GTO must latch warp 9 as the greedy target.
	const stall = 1 << 40
	for i := 0; i < 10; i++ {
		w := &warp{
			id:       i,
			regReady: make([]int64, k.NumRegs),
			stack:    []stackEntry{{block: 0, instr: 0, rpc: -1, mask: 1}},
			active:   1,
		}
		switch {
		case i < 8:
			w.done = true
		case i == 8:
			w.readyAt = stall
		}
		r.warps = append(r.warps, w)
		if !w.done {
			r.live++
			r.schedule(w)
		}
	}
	greedy := r.pickWarp()
	if greedy != r.warps[9] {
		t.Fatalf("GTO picked warp %d, want the only ready warp 9", greedy.id)
	}

	// Compact renumbers: the stalled warp becomes index/ID 0, the greedy
	// target becomes index/ID 1. Advance to the cycle the stalled warp's
	// scoreboard clears so both are ready.
	r.compact()
	r.cycle = stall
	if got := r.pickWarp(); got != greedy {
		t.Fatalf("greedy target switched across compaction: got warp %d, want the pre-compaction greedy (now warp %d)",
			got.id, greedy.id)
	}

	// A retired greedy target must be dropped, not pinned forever.
	r.dequeue(greedy)
	greedy.done = true
	r.compact()
	if r.greedy != nil {
		t.Error("compact kept a retired greedy target")
	}
	if got := r.pickWarp(); got != r.warps[0] {
		t.Fatalf("after greedy retirement GTO picked warp %d, want oldest ready warp 0", got.id)
	}
}

// TestSIMTGTOCompactionMatchesReference drives a GTO run with resident
// limits small enough that the warp list compacts repeatedly mid-run
// (compaction fires once the list outgrows 4*MaxWarps), and checks the
// output against the scalar reference.
func TestSIMTGTOCompactionMatchesReference(t *testing.T) {
	const n = 1024 // 32 CTAs of 32 threads: 32 warps through a 4-warp budget
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	cfg.MaxCTAs = 2
	cfg.MaxWarps = 4
	launch := kir.Launch1D(n/32, 32, 0, n)
	ref := reference(t, buildDiamond, launch, diamondInput(n))

	ck, err := compile.Compile(buildDiamond())
	if err != nil {
		t.Fatal(err)
	}
	got := diamondInput(n)
	res, err := NewMachine(cfg).Run(ck, launch, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("mem[%d]: simt %d, ref %d", i, got[i], ref[i])
		}
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
}

// scanIssue is the scheduler's readiness answer recomputed from scratch: the
// cycle the warp's next instruction can issue, scoreboard and execution port
// folded together (terminators need no port).
func scanIssue(r *run, w *warp) int64 {
	t, port := r.scoreboardReady(w)
	if port != portTerm && r.portFree[port] > t {
		t = r.portFree[port]
	}
	return t
}

// scanPick is the linear-scan scheduler the ready sets replace, without its
// side effects: GTO keeps the greedy warp while it is ready, else takes the
// oldest ready warp; LRR takes the first ready warp after lastPick in cyclic
// order over the whole (uncompacted) warp list.
func scanPick(r *run) *warp {
	ready := func(w *warp) bool { return !w.done && !w.atBarrier && scanIssue(r, w) <= r.cycle }
	n := len(r.warps)
	if r.m.cfg.Scheduler == SchedGTO {
		if g := r.greedy; g != nil && ready(g) {
			return g
		}
		for _, w := range r.warps {
			if ready(w) {
				return w
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if w := r.warps[(r.lastPick+1+i)%n]; ready(w) {
			return w
		}
	}
	return nil
}

// scanJump is the linear-scan idle jump: the earliest issue cycle over every
// warp that is live and not at a barrier, at least one cycle ahead.
func scanJump(r *run) int64 {
	next := noEvent
	for _, w := range r.warps {
		if !w.done && !w.atBarrier {
			next = min(next, scanIssue(r, w))
		}
	}
	return max(next, r.cycle+1)
}

// checkQueues panics unless the eager scheduler state matches a fresh scan:
// the live count, and for every live warp not at a barrier, its queue
// membership, scoreboard time and port.
func checkQueues(r *run) {
	live := 0
	for _, w := range r.warps {
		if w.done {
			if w.queued {
				panic(fmt.Sprintf("simt: retired warp %d is still queued", w.id))
			}
			continue
		}
		live++
		if w.atBarrier {
			if w.queued {
				panic(fmt.Sprintf("simt: warp %d is queued while at a barrier", w.id))
			}
			continue
		}
		ready, port := r.scoreboardReady(w)
		if !w.queued || ready != w.sbReady || port != w.port {
			panic(fmt.Sprintf("simt: stale scheduler state for warp %d: queued %v (%d, port %d), fresh (%d, port %d)",
				w.id, w.queued, w.sbReady, w.port, ready, port))
		}
	}
	if live != r.live {
		panic(fmt.Sprintf("simt: live count %d, scan finds %d", r.live, live))
	}
}

// lockstep arms debugVerifySchedule with the linear scan for the duration of
// the test: every pick and every idle jump is recomputed, and the run panics
// on the first difference.
func lockstep(t *testing.T) {
	debugVerifySchedule = &scheduleVerifier{
		pick: func(r *run, w *warp) {
			checkQueues(r)
			if want := scanPick(r); w != want {
				panic(fmt.Sprintf("simt: cycle %d: ready sets picked %s, linear scan picks %s",
					r.cycle, warpName(w), warpName(want)))
			}
		},
		jump: func(r *run, next int64) {
			checkQueues(r)
			if want := scanJump(r); next != want {
				panic(fmt.Sprintf("simt: cycle %d: idle jump to %d, linear scan jumps to %d", r.cycle, next, want))
			}
		},
	}
	t.Cleanup(func() { debugVerifySchedule = nil })
}

func warpName(w *warp) string {
	if w == nil {
		return "no warp"
	}
	return fmt.Sprintf("warp %d", w.id)
}

// TestScheduleMatchesLinearScan runs every kernel shape — the diamond,
// data-dependent loop and barrier kernels, a compacting GTO run, and every
// registry kernel — under both schedulers in lockstep with the linear-scan
// scheduler, which recomputes every pick and idle jump from scratch. This
// pins the eager recomputation points (issue, terminator, barrier release)
// to the events that actually change a warp's readiness, and the ready-set
// picks to the scan's order.
func TestScheduleMatchesLinearScan(t *testing.T) {
	lockstep(t)
	const n = 256
	small := []struct {
		name   string
		build  func() *kir.Kernel
		input  func() []uint32
		launch kir.Launch
		tiny   bool // resident limits small enough to compact repeatedly
	}{
		{"diamond", buildDiamond, func() []uint32 { return diamondInput(n) }, kir.Launch1D(n/32, 32, 0, n), false},
		{"diamond-compacting", buildDiamond, func() []uint32 { return diamondInput(4 * n) }, kir.Launch1D(4*n/32, 32, 0, 4*n), true},
		{"loopsum", buildLoopSum, func() []uint32 { return make([]uint32, n) }, kir.Launch1D(n/32, 32, 0), false},
		{"barrier", buildBarrierReverse, func() []uint32 { return make([]uint32, n) }, kir.Launch1D(n/32, 32, 0), false},
	}
	for _, pol := range []SchedPolicy{SchedLRR, SchedGTO} {
		for _, kc := range small {
			cfg := DefaultConfig()
			cfg.Scheduler = pol
			if kc.tiny {
				cfg.MaxCTAs, cfg.MaxWarps = 2, 4
			}
			ck, err := compile.Compile(kc.build())
			if err != nil {
				t.Fatal(err)
			}
			ref := reference(t, kc.build, kc.launch, kc.input())
			got := kc.input()
			if _, err := NewMachine(cfg).Run(ck, kc.launch, got); err != nil {
				t.Fatalf("%s/%v: %v", kc.name, pol, err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s/%v: mem[%d]: simt %d, ref %d", kc.name, pol, i, got[i], ref[i])
				}
			}
		}
		cfg := DefaultConfig()
		cfg.Scheduler = pol
		registryResults(t, cfg) // checks every output against its host reference
	}
}
