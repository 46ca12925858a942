package simt

import "math/bits"

// The warp scheduler keeps every live warp that is not waiting at a barrier
// queued on its execution port (warp.port), in exactly one of three places:
//
//   - ready: the warps whose scoreboard has cleared (sbReady <= cycle), as
//     a bitset over warp ids per port, plus readyAny, their union.
//   - a wheel slot: pending warps due within wheelSlots cycles, chained
//     through warp.nextDue in slot sbReady mod wheelSlots. The wheel covers
//     the cycles [wheelBase, wheelBase+wheelSlots), so each slot holds one
//     cycle's warps.
//   - far: a min-heap on sbReady of the pending warps due later.
//
// wake moves due warps into ready at the start of each pick. A warp can
// issue exactly when it is ready and its port is free, so a pick is a bit
// scan over the open ports' ready sets in the policy's id order, and the
// idle jump is a per-port minimum that needs no scan over warps.
//
// Each pick equals the old linear scan over the whole warp list: a warp's
// issue time is max(sbReady, portFree[port]); sbReady changes only when the
// warp issues, executes a terminator or is released from a barrier, and each
// of those requeues it with a fresh sbReady; portFree is read live. LRR's
// cyclic scan from lastPick+1 over ids 0..len(warps)-1 is the lowest ready
// id above lastPick, else the lowest ready id; GTO's oldest ready warp is
// the lowest ready id. Tests check every pick and idle jump against the
// scan (debugVerifySchedule).
type sched struct {
	lastPick int   // LRR rotation cursor (index into warps; reset by compact)
	greedy   *warp // GTO greedy target, tracked by identity: compact()
	// renumbers warp IDs, so an index or ID would silently redirect the
	// greedy policy to a different warp across compaction.

	ready    [numPorts][]uint64
	readyAny []uint64

	wheelBase int64
	slots     [numPorts][wheelSlots]*warp
	occupied  [numPorts]uint64 // bit s: slot s holds warps

	far   [numPorts][]pendingWarp
	farAt int64 // earliest sbReady in any far heap; noEvent when all are empty
}

// wheelSlots is the wheel's span in cycles: it covers every ALU and SFU
// result latency and an L1 hit, each plus PipelineLat, so only warps behind
// an L2 or DRAM access wait in the far heaps.
const wheelSlots = 64

// pendingWarp is a far-heap entry, keyed inline so sifting never touches
// the warp.
type pendingWarp struct {
	at int64
	w  *warp
}

// debugVerifySchedule, set by tests only, is shown every scheduling decision
// so it can recompute it with a from-scratch scan over all warps: pick gets
// pickWarp's choice (nil when no warp is ready) before the LRR cursor or GTO
// target moves, jump gets each idle jump's target cycle.
var debugVerifySchedule *scheduleVerifier

type scheduleVerifier struct {
	pick func(r *run, w *warp)
	jump func(r *run, next int64)
}

// initSched sizes the ready bitsets and far heaps. Warp ids stay below
// 5*MaxWarps: compact runs whenever the list outgrows 4*MaxWarps, and one
// round of admission adds at most MaxWarps. A heap never holds more than the
// MaxWarps live warps.
func (r *run) initSched() {
	words := 5*r.m.cfg.MaxWarps/64 + 1
	for p := range r.ready {
		r.ready[p] = make([]uint64, words)
		r.far[p] = make([]pendingWarp, 0, r.m.cfg.MaxWarps)
	}
	r.readyAny = make([]uint64, words)
	r.farAt = noEvent
}

// schedule computes the warp's scheduler state and queues it on its port.
//
//vgiw:hotpath
func (r *run) schedule(w *warp) {
	w.sbReady, w.port = r.scoreboardReady(w)
	w.queued = true
	switch {
	case w.sbReady <= r.cycle:
		r.setReady(w)
	case w.sbReady < r.wheelBase+wheelSlots:
		// sbReady > cycle >= wheelBase-1, so it lies inside the wheel.
		s := w.sbReady & (wheelSlots - 1)
		w.nextDue = r.slots[w.port][s]
		r.slots[w.port][s] = w
		r.occupied[w.port] |= 1 << s
	default:
		// Sift up the port's far heap, sized for every live warp, so the
		// reslice never grows it.
		x := pendingWarp{at: w.sbReady, w: w}
		h := r.far[w.port]
		i := len(h)
		h = h[:i+1]
		for i > 0 {
			up := (i - 1) / 2
			if h[up].at <= x.at {
				break
			}
			h[i] = h[up]
			i = up
		}
		h[i] = x
		r.far[w.port] = h
		r.farAt = min(r.farAt, x.at)
	}
}

func (r *run) setReady(w *warp) {
	bit := uint64(1) << (w.id & 63)
	r.ready[w.port][w.id>>6] |= bit
	r.readyAny[w.id>>6] |= bit
}

// dequeue takes a picked warp out of its ready set for issue.
func (r *run) dequeue(w *warp) {
	bit := uint64(1) << (w.id & 63)
	r.ready[w.port][w.id>>6] &^= bit
	r.readyAny[w.id>>6] &^= bit
	w.queued = false
}

// wake moves every pending warp due by this cycle into its port's ready set:
// the wheel slots of the cycles since the last wake, then the far heaps'
// due roots.
//
//vgiw:hotpath
func (r *run) wake() {
	c := r.cycle
	if c < r.wheelBase {
		return // already woken this cycle
	}
	due := ^uint64(0)
	if n := c - r.wheelBase + 1; n < wheelSlots {
		due = bits.RotateLeft64(1<<n-1, int(r.wheelBase&(wheelSlots-1)))
	}
	r.wheelBase = c + 1
	for p := range r.occupied {
		x := r.occupied[p] & due
		r.occupied[p] &^= x
		for ; x != 0; x &= x - 1 {
			s := bits.TrailingZeros64(x)
			for w := r.slots[p][s]; w != nil; {
				next := w.nextDue
				w.nextDue = nil
				r.setReady(w)
				w = next
			}
			r.slots[p][s] = nil
		}
	}
	if c < r.farAt {
		return
	}
	r.farAt = noEvent
	for p := range r.far {
		h := r.far[p]
		for len(h) > 0 && h[0].at <= c {
			r.setReady(h[0].w)
			// Pop the root: sift the last entry down from the top.
			n := len(h) - 1
			x := h[n]
			h[n] = pendingWarp{}
			h = h[:n]
			i := 0
			for {
				k := 2*i + 1
				if k >= n {
					break
				}
				if k+1 < n && h[k+1].at < h[k].at {
					k++
				}
				if x.at <= h[k].at {
					break
				}
				h[i] = h[k]
				i = k
			}
			if n > 0 {
				h[i] = x
			}
		}
		r.far[p] = h
		if len(h) > 0 {
			r.farAt = min(r.farAt, h[0].at)
		}
	}
}

// firstReady returns the lowest-id warp at or after id from that can issue
// this cycle: ready, and not on one of the closed ports (a bit per port).
//
//vgiw:hotpath
func (r *run) firstReady(from int, closed uint) *warp {
	// Ids stop at len(warps)-1, so later words are empty.
	for i, end := from>>6, (len(r.warps)+63)>>6; i < end; i++ {
		x := r.readyAny[i]
		for c := closed; c != 0; c &= c - 1 {
			x &^= r.ready[bits.TrailingZeros(c)][i]
		}
		if i == from>>6 {
			x &= ^uint64(0) << (from & 63)
		}
		if x != 0 {
			return r.warps[i<<6+bits.TrailingZeros64(x)]
		}
	}
	return nil
}

// pickWarp selects a warp that can issue this cycle according to the
// configured policy.
//
//vgiw:hotpath
func (r *run) pickWarp() *warp {
	r.wake()
	var closed uint
	for p, free := range r.portFree {
		if free > r.cycle {
			closed |= 1 << p
		}
	}
	var w *warp
	if r.m.cfg.Scheduler == SchedGTO {
		// Greedy: stay on the last issued warp while it remains ready;
		// then oldest: the lowest ready warp ID (admission order is age
		// order, and compact preserves it).
		if g := r.greedy; g != nil && g.queued && closed&(1<<g.port) == 0 &&
			r.ready[g.port][g.id>>6]&(1<<(g.id&63)) != 0 {
			w = g
		} else {
			w = r.firstReady(0, closed)
		}
	} else if w = r.firstReady(r.lastPick+1, closed); w == nil {
		// Loose round robin: the first ready warp after the last pick, in
		// cyclic id order.
		w = r.firstReady(0, closed)
	}
	if debugVerifySchedule != nil {
		debugVerifySchedule.pick(r, w)
	}
	if w != nil {
		if r.m.cfg.Scheduler == SchedGTO {
			r.greedy = w
		} else {
			r.lastPick = w.id
		}
	}
	return w
}

// nextEvent is the earliest cycle any queued warp can issue: per port, the
// later of the port freeing up and its earliest scoreboard-ready warp. A
// nonempty ready set's earliest warp is ready by now, so the port alone
// decides; the caller clamps the result past the current cycle.
//
//vgiw:hotpath
func (r *run) nextEvent() int64 {
	next := noEvent
	for p := range r.ready {
		t := noEvent
		if anySet(r.ready[p][:(len(r.warps)+63)>>6]) {
			t = r.cycle
		} else {
			if occ := r.occupied[p]; occ != 0 {
				// Rotate the wheel so bit 0 is slot wheelBase.
				off := bits.TrailingZeros64(bits.RotateLeft64(occ, -int(r.wheelBase&(wheelSlots-1))))
				t = r.wheelBase + int64(off)
			}
			if len(r.far[p]) > 0 {
				t = min(t, r.far[p][0].at)
			}
			if t == noEvent {
				continue
			}
		}
		next = min(next, max(r.portFree[p], t))
	}
	return next
}

func anySet(set []uint64) bool {
	for _, x := range set {
		if x != 0 {
			return true
		}
	}
	return false
}

// compact drops retired warps and renumbers the rest, keeping age order.
// The GTO greedy target is held by pointer, so it survives renumbering; only
// a retired target is dropped. The ready bitsets are keyed by warp id, so
// they are rebuilt; the wheel and far heaps hold pointers and need nothing.
func (r *run) compact() {
	// After wake, a queued warp is ready exactly when sbReady <= cycle.
	r.wake()
	live := r.warps[:0]
	for _, w := range r.warps {
		if !w.done {
			w.id = len(live)
			live = append(live, w)
		}
	}
	clear(r.warps[len(live):])
	r.warps = live
	r.lastPick = 0
	if r.greedy != nil && r.greedy.done {
		r.greedy = nil
	}
	for p := range r.ready {
		clear(r.ready[p])
	}
	clear(r.readyAny)
	for _, w := range r.warps {
		if w.queued && w.sbReady <= r.cycle {
			r.setReady(w)
		}
	}
}
