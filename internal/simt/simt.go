// Package simt is the von Neumann GPGPU baseline: a cycle-approximate model
// of an NVIDIA Fermi streaming multiprocessor. It executes kernels in
// lockstep warps of 32 threads with a SIMT reconvergence stack (execution
// masks under divergence), dual warp schedulers, a register scoreboard,
// per-warp memory coalescing, and a write-through/no-allocate L1 (§3.6).
//
// The model exists to reproduce the paper's comparisons: Figure 3 (register
// file traffic), Figure 7 (speedup), and Figures 9/10 (energy efficiency).
package simt

import (
	"context"
	"fmt"
	"math/bits"

	"vgiw/internal/compile"
	"vgiw/internal/engine"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// Config sizes the SM.
type Config struct {
	WarpSize   int // 32 lanes
	MaxCTAs    int // resident CTAs (Fermi: 8)
	MaxWarps   int // resident warps (Fermi: 48)
	IssueWidth int // warp instructions issued per cycle (dual schedulers)

	// Execution-port occupancies: cycles one warp instruction holds the
	// shared unit array (32 lanes over N units of that kind).
	ALUOccupancy int64 // 32 CUDA cores: 1 warp instruction per cycle
	SFUOccupancy int64 // 4 SFUs: 8 cycles
	MemOccupancy int64 // 16 LD/ST units: 2 cycles
	// BranchLat is the pipeline-refill bubble a warp pays at every block
	// terminator (branch resolution + instruction fetch redirect).
	BranchLat int64
	// PipelineLat is the register-file round-trip added to every dependent
	// latency: operand collection, the execution pipeline's writeback
	// stage, and the RF write. Fermi's measured dependent ALU latency is
	// ~18 cycles; the dataflow fabric forwards tokens directly and pays
	// only hop latency instead — one of the two von Neumann overheads the
	// paper targets (§1).
	PipelineLat int64
	// Scheduler selects the warp scheduling policy.
	Scheduler SchedPolicy
	Mem       mem.Config
	// Trace, when non-nil, receives cycle-level events (trace.CatSIMT for
	// warp issue/stall/divergence/reconvergence/barrier, trace.CatMem for
	// periodic memory-system counter samples). A nil sink keeps the issue
	// loop allocation-free.
	Trace *trace.Sink
}

// SchedPolicy selects how the warp scheduler picks among ready warps.
type SchedPolicy uint8

const (
	// SchedLRR is loose round robin (the default).
	SchedLRR SchedPolicy = iota
	// SchedGTO is greedy-then-oldest: stick with the last issued warp
	// while it stays ready, else fall back to the oldest ready warp —
	// the policy family the paper's related work ([11], two-level warp
	// scheduling) improves on.
	SchedGTO
)

func (p SchedPolicy) String() string {
	if p == SchedGTO {
		return "gto"
	}
	return "lrr"
}

// DefaultConfig is a GTX480-class SM with the §3.6 memory system
// (write-through, no-allocate L1).
func DefaultConfig() Config {
	return Config{
		WarpSize: 32,
		MaxCTAs:  8,
		MaxWarps: 48,
		// Fermi's two schedulers run at the half-rate scheduler clock; at
		// the 1.4GHz core clock the SM sustains one warp instruction per
		// cycle (32 CUDA cores = one full warp ALU op per core cycle).
		IssueWidth:   1,
		ALUOccupancy: 1,
		SFUOccupancy: 8,
		MemOccupancy: 2,
		BranchLat:    4,
		PipelineLat:  14,
		Mem:          mem.DefaultConfig(mem.WriteThrough),
	}
}

// Result aggregates a kernel execution on the SM.
type Result struct {
	Kernel  string
	Threads int
	Cycles  int64

	WarpInstrs   uint64 // issued warp instructions (terminators included)
	ThreadInstrs uint64 // sum of active lanes over issued instructions
	MaskedLanes  uint64 // lanes disabled by divergence on issued instructions

	// Register file traffic. RFReads/RFWrites count per-lane word accesses
	// (the RF reads a full vector register per warp operand, so all
	// WarpSize lanes are charged); RFWarpAccesses counts one access per
	// warp operand.
	RFReads, RFWrites uint64
	RFWarpAccesses    uint64

	ALUOps  uint64 // active ALU lane-operations
	FPOps   uint64 // active floating-point lane-operations (subset of ALUOps)
	SFUOps  uint64 // active SFU lane-operations
	MemOps  uint64 // active memory lane-operations
	L1Trans uint64 // coalesced L1 transactions
	ShTrans uint64 // shared-memory transactions

	Divergences uint64 // stack pushes (branches where lanes split)
	Barriers    uint64

	MemStats mem.SystemStats
}

// stackEntry is one SIMT reconvergence stack level: execute `block` under
// `mask`; pop when control reaches `rpc`.
type stackEntry struct {
	block int
	instr int
	rpc   int
	mask  uint32
}

// laneStride is the width of one register plane. The execution mask is a
// uint32, so a warp never has more than 32 lanes.
const laneStride = 32

type warp struct {
	id   int
	cta  int
	tid0 int // global thread ID of lane 0; lane l runs thread tid0+l
	loc0 int // CTA-local index of lane 0 (indexes the geometry tables)

	// rf holds the warp's registers reg-major, one 32-lane plane per
	// register: lane l of register r is rf[r*laneStride+l].
	rf       []uint32
	regReady []int64 // scoreboard: cycle each register's value is ready

	stack   []stackEntry
	active  uint32 // lanes that have not returned
	readyAt int64  // structural: next cycle this warp may issue

	atBarrier bool
	done      bool

	// Scheduler state, recomputed eagerly at the only events that change it
	// (the warp's issue, its terminator, a barrier release): sbReady is the
	// scoreboard half of the issue time — readyAt folded with the regReady
	// of the next instruction's operands — and port is the execution port
	// that instruction needs (portTerm for terminators). queued reports that
	// the warp sits in one of its port's queues (sched); nextDue chains it
	// within a wheel slot.
	sbReady int64
	port    int
	queued  bool
	nextDue *warp
}

func (w *warp) top() *stackEntry { return &w.stack[len(w.stack)-1] }

// plane returns register reg's 32-lane vector.
func (w *warp) plane(reg kir.Reg) *[laneStride]uint32 {
	return (*[laneStride]uint32)(w.rf[int(reg)*laneStride:])
}

// uop is one decoded slot of a block: an instruction, or the block's
// terminator as the slot after its last instruction. Decoding resolves the
// per-op facts the issue loop needs once per run rather than once per issue.
type uop struct {
	in   kir.Instr  // the instruction (zero for the terminator slot)
	src  [3]kir.Reg // scoreboard operands: the sources, or a branch's condition
	nsrc int
	port int // execution port; portTerm for the terminator slot
	lat  int64
	dst  bool // writes a register
	fp   bool // floating-point op
}

// decode lays out the kernel's slots block by block, in one allocation.
func decode(k *kir.Kernel) [][]uop {
	n := 0
	for _, b := range k.Blocks {
		n += len(b.Instrs) + 1
	}
	flat := make([]uop, n)
	prog := make([][]uop, len(k.Blocks))
	for bi, b := range k.Blocks {
		slots := flat[:len(b.Instrs)+1]
		flat = flat[len(slots):]
		for i, in := range b.Instrs {
			slots[i] = uop{in: in, src: in.Src, nsrc: in.Op.NumSrc(), port: portOf(in.Op),
				lat: engine.OpLatency(in.Op), dst: in.Op.HasDst(), fp: in.Op.IsFloat()}
		}
		term := &slots[len(b.Instrs)]
		term.port = portTerm
		if b.Term.Kind == kir.TermBranch {
			term.src[0], term.nsrc = b.Term.Cond, 1
		}
		prog[bi] = slots
	}
	return prog
}

// Machine is the SM simulator.
type Machine struct {
	cfg Config
}

// NewMachine builds an SM.
func NewMachine(cfg Config) *Machine { return &Machine{cfg: cfg} }

// Run executes a compiled kernel launch, mutating global memory in place.
func (m *Machine) Run(ck *compile.CompiledKernel, launch kir.Launch, global []uint32) (*Result, error) {
	return m.RunCtx(context.Background(), ck, launch, global)
}

// RunCtx is Run with cooperative cancellation: the warp-scheduler loop polls
// ctx every ctxCheckCycles scheduling rounds and returns ctx.Err() once the
// context is done, so a deadline or cancel preempts a running kernel.
func (m *Machine) RunCtx(ctx context.Context, ck *compile.CompiledKernel, launch kir.Launch, global []uint32) (*Result, error) {
	k := ck.Kernel
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	if len(launch.Params) != k.NumParams {
		return nil, fmt.Errorf("simt: kernel %s wants %d params, launch has %d",
			k.Name, k.NumParams, len(launch.Params))
	}
	r := &run{
		m:      m,
		ctx:    ctx,
		k:      k,
		ipdom:  ck.IPDom,
		prog:   decode(k),
		launch: launch,
		geom:   launch.NewGeom(),
		global: global,
		sys:    mem.NewSystem(m.cfg.Mem),
		res:    &Result{Kernel: k.Name, Threads: launch.Threads()},
		sink:   m.cfg.Trace,
	}
	if r.sink.Enabled(trace.CatSIMT | trace.CatMem) {
		pid := r.sink.AllocProcess(k.Name + "/simt")
		r.tr = simtTracks{
			sched: trace.TrackID{Pid: pid, Tid: 0},
			div:   trace.TrackID{Pid: pid, Tid: 1},
			mem:   trace.TrackID{Pid: pid, Tid: 2},
		}
		r.sink.DefineTrack(r.tr.sched, "sched")
		r.sink.DefineTrack(r.tr.div, "divergence")
		r.sink.DefineTrack(r.tr.mem, "mem")
	}
	r.shared = make([][]uint32, launch.CTAs())
	for i := range r.shared {
		r.shared[i] = make([]uint32, k.SharedWds)
	}
	if err := r.execute(); err != nil {
		return nil, err
	}
	r.res.Cycles = r.cycle
	r.res.MemStats = r.sys.Stats()
	r.sys.Release() // stats snapshotted; recycle the cache directories
	return r.res, nil
}

type run struct {
	m      *Machine
	ctx    context.Context
	k      *kir.Kernel
	ipdom  []int
	prog   [][]uop // decoded slots per block (decode)
	launch kir.Launch
	geom   *kir.Geom
	global []uint32
	shared [][]uint32
	sys    *mem.System
	res    *Result

	// warps lists resident warps in admission (= age) order, retired ones
	// included until compact drops them; a warp's id is its index here.
	warps []*warp
	// spareRF/spareReady hold the register planes and scoreboards of
	// retired warps for reuse, so a run allocates them only for its peak
	// number of resident warps.
	spareRF    [][]uint32
	spareReady [][]int64
	live       int // warps not yet retired
	nextCTA    int
	liveCTA    []int // per CTA: live warps
	ctasLive   int   // CTAs with at least one live warp
	barriers   []int // per CTA: warps waiting at the barrier
	cycle      int64
	sched

	// Shared execution ports: next cycle the ALU array / SFUs / LD-ST
	// units accept a new warp instruction. portFree[portTerm] stays 0:
	// terminators need no port.
	portFree [numPorts]int64

	// memScratch dedupes line/bank ids in execMem. Reused across
	// instructions so the hot path allocates nothing; lane order (not map
	// order) decides the access sequence, keeping runs reproducible.
	memScratch []int64

	// sink/tr route cycle-level events; lastMemSample throttles the
	// memory-counter track to one sample per memSampleCycles.
	sink          *trace.Sink
	tr            simtTracks
	lastMemSample int64
}

// simtTracks lays out one SIMT run's trace tracks: the issue stream
// (issue spans + stall gaps), divergence-stack activity, and memory-system
// counter samples.
type simtTracks struct {
	sched, div, mem trace.TrackID
}

// memSampleCycles is the SIMT memory-counter sampling period. The SM has no
// natural epoch boundary like VGIW's block-vector retirement, so counters are
// sampled on a fixed cycle grid.
const memSampleCycles = 1024

// sampleMem emits cumulative memory-system counters onto the mem track, at
// most once per memSampleCycles.
func (r *run) sampleMem() {
	if !r.sink.Enabled(trace.CatMem) || r.cycle-r.lastMemSample < memSampleCycles {
		return
	}
	r.lastMemSample = r.cycle
	ms := r.sys.Stats()
	r.sink.Emit(trace.Event{Name: "l1", Cat: trace.CatMem, Phase: trace.PhaseCounter,
		Track: r.tr.mem, Ts: r.cycle,
		K1: "accesses", V1: int64(ms.L1.Accesses()), K2: "misses", V2: int64(ms.L1.Misses())})
	r.sink.Emit(trace.Event{Name: "l2", Cat: trace.CatMem, Phase: trace.PhaseCounter,
		Track: r.tr.mem, Ts: r.cycle,
		K1: "accesses", V1: int64(ms.L2.Accesses()), K2: "misses", V2: int64(ms.L2.Misses())})
	r.sink.Emit(trace.Event{Name: "dram", Cat: trace.CatMem, Phase: trace.PhaseCounter,
		Track: r.tr.mem, Ts: r.cycle,
		K1: "reads", V1: int64(ms.DRAM.Reads), K2: "writes", V2: int64(ms.DRAM.Writes)})
}

// Execution port indices. portTerm is the pseudo-port of block terminators,
// which occupy no execution unit.
const (
	portALU = iota
	portSFU
	portMEM
	portTerm
	numPorts
)

// portOf classifies an instruction onto an execution port.
func portOf(op kir.Op) int {
	switch {
	case op.IsMemory():
		return portMEM
	case op.Class() == kir.ClassSCU:
		return portSFU
	}
	return portALU
}

// noEvent is the idle jump's "no warp can ever issue" sentinel.
const noEvent = int64(1<<62 - 1)

// execute drives the warp schedulers until every CTA has completed.
func (r *run) execute() error {
	ctaSize := r.launch.CTASize()
	warpsPerCTA := (ctaSize + r.m.cfg.WarpSize - 1) / r.m.cfg.WarpSize
	if warpsPerCTA > r.m.cfg.MaxWarps {
		return fmt.Errorf("simt: CTA of %d threads exceeds %d resident warps", ctaSize, r.m.cfg.MaxWarps)
	}
	nCTAs := r.launch.CTAs()
	r.liveCTA = make([]int, nCTAs)
	r.barriers = make([]int, nCTAs)
	r.initSched()

	// Cooperative cancellation: one ctx poll per ctxCheckCycles scheduling
	// rounds keeps the per-cycle cost negligible while bounding cancellation
	// latency to well under a millisecond of host time.
	const ctxCheckCycles = 4096
	checkIn := ctxCheckCycles

	for {
		if checkIn--; checkIn <= 0 {
			checkIn = ctxCheckCycles
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		// Admit resident CTAs up to the occupancy limits; compact retired
		// warps away once they dominate the list.
		for r.nextCTA < nCTAs &&
			r.ctasLive < r.m.cfg.MaxCTAs &&
			r.live+warpsPerCTA <= r.m.cfg.MaxWarps {
			r.admitCTA(r.nextCTA, warpsPerCTA)
			r.nextCTA++
		}
		if len(r.warps) > 4*r.m.cfg.MaxWarps {
			r.compact()
		}
		if r.live == 0 {
			if r.nextCTA >= nCTAs {
				return nil
			}
			continue
		}

		issued := 0
		for issued < r.m.cfg.IssueWidth {
			w := r.pickWarp()
			if w == nil {
				break
			}
			r.dequeue(w)
			if err := r.issue(w); err != nil {
				return err
			}
			issued++
		}
		if issued > 0 {
			r.cycle++
			r.sampleMem()
			continue
		}
		// Nothing issuable this cycle: jump to the next event.
		next := r.nextEvent()
		if next >= noEvent {
			return fmt.Errorf("simt: deadlock at cycle %d (all warps blocked)", r.cycle)
		}
		if next <= r.cycle {
			next = r.cycle + 1
		}
		if debugVerifySchedule != nil {
			debugVerifySchedule.jump(r, next)
		}
		if r.sink.Enabled(trace.CatSIMT) {
			// An issue-less gap: every resident warp is stalled on the
			// scoreboard, an execution port, or a barrier.
			r.sink.Emit(trace.Event{Name: "stall", Cat: trace.CatSIMT, Phase: trace.PhaseSpan,
				Track: r.tr.sched, Ts: r.cycle, Dur: next - r.cycle,
				K1: "warps", V1: int64(r.live)})
		}
		r.cycle = next
		r.sampleMem()
	}
}

// admitCTA makes the CTA's warps resident and queues them.
func (r *run) admitCTA(cta, warpsPerCTA int) {
	ctaSize := r.launch.CTASize()
	ws := r.m.cfg.WarpSize
	for wi := 0; wi < warpsPerCTA; wi++ {
		loc0 := wi * ws
		lanes := min(ws, ctaSize-loc0)
		mask := uint32(uint64(1)<<lanes - 1)
		w := &warp{
			id: len(r.warps), cta: cta, tid0: cta*ctaSize + loc0, loc0: loc0,
			stack:   []stackEntry{{block: 0, instr: 0, rpc: -1, mask: mask}},
			active:  mask,
			readyAt: r.cycle,
		}
		w.rf, w.regReady = r.takeRegs()
		r.warps = append(r.warps, w)
		r.live++
		r.liveCTA[cta]++
		r.schedule(w)
	}
	r.ctasLive++
}

// takeRegs returns zeroed register planes and scoreboard for a new warp,
// reusing a retired warp's storage where it can.
func (r *run) takeRegs() ([]uint32, []int64) {
	n := len(r.spareRF)
	if n == 0 {
		return make([]uint32, r.k.NumRegs*laneStride), make([]int64, r.k.NumRegs)
	}
	rf, ready := r.spareRF[n-1], r.spareReady[n-1]
	r.spareRF, r.spareReady = r.spareRF[:n-1], r.spareReady[:n-1]
	clear(rf)
	clear(ready)
	return rf, ready
}

// scoreboardReady scans the warp's next instruction: the cycle its operands
// and the warp itself are ready, plus the execution port it needs.
func (r *run) scoreboardReady(w *warp) (int64, int) {
	t := w.readyAt
	e := w.top()
	u := &r.prog[e.block][e.instr]
	for _, s := range u.src[:u.nsrc] {
		if rr := w.regReady[s]; rr > t {
			t = rr
		}
	}
	return t, u.port
}

// issue executes one warp instruction (or terminator) at the current cycle,
// then requeues the warp unless it retired or waits at a barrier (a barrier
// release queues the warps it wakes itself).
func (r *run) issue(w *warp) error {
	e := w.top()
	u := &r.prog[e.block][e.instr]
	var err error
	if u.port == portTerm {
		r.issueTerm(w, r.k.Blocks[e.block].Term)
	} else {
		err = r.issueInstr(w, u)
	}
	if err == nil && !w.done && !w.atBarrier && !w.queued {
		r.schedule(w)
	}
	return err
}

// countRF charges register-file traffic for one issued warp instruction.
func (r *run) countRF(reads, writes int) {
	ws := uint64(r.m.cfg.WarpSize)
	r.res.RFReads += uint64(reads) * ws
	r.res.RFWrites += uint64(writes) * ws
	r.res.RFWarpAccesses += uint64(reads + writes)
}

func (r *run) issueInstr(w *warp, u *uop) error {
	in := &u.in
	e := w.top()
	mask := e.mask
	lanesOn := bits.OnesCount32(mask)
	r.res.WarpInstrs++
	r.res.ThreadInstrs += uint64(lanesOn)
	r.res.MaskedLanes += uint64(bits.OnesCount32(w.active &^ mask))
	r.countRF(u.nsrc, boolInt(u.dst))

	occupancy := r.m.cfg.ALUOccupancy
	done := r.cycle + u.lat

	switch u.port {
	case portMEM:
		r.res.MemOps += uint64(lanesOn)
		var trans int
		var err error
		done, trans, err = r.execMem(w, in, mask)
		if err != nil {
			return err
		}
		// An uncoalesced access replays: the LD/ST port is held once per
		// generated transaction (memory divergence), not per instruction.
		occupancy = r.m.cfg.MemOccupancy
		if t := int64(trans); t > occupancy {
			occupancy = t
		}
	case portSFU:
		occupancy = r.m.cfg.SFUOccupancy
		r.res.SFUOps += uint64(lanesOn)
		r.execALU(w, u, mask)
	default:
		r.res.ALUOps += uint64(lanesOn)
		if u.fp {
			r.res.FPOps += uint64(lanesOn)
		}
		r.execALU(w, u, mask)
	}

	if u.dst {
		w.regReady[in.Dst] = done + r.m.cfg.PipelineLat
	}
	r.portFree[u.port] = r.cycle + occupancy
	w.readyAt = r.cycle + 1
	e.instr++
	if r.sink.Enabled(trace.CatSIMT) {
		// One span per issued warp instruction: issue to execution-complete
		// (the op name labels the span; the register writeback lands
		// PipelineLat later).
		r.sink.Emit(trace.Event{Name: in.Op.String(), Cat: trace.CatSIMT, Phase: trace.PhaseSpan,
			Track: r.tr.sched, Ts: r.cycle, Dur: done - r.cycle,
			K1: "warp", V1: int64(w.id), K2: "block", V2: int64(e.block), K3: "lanes", V3: int64(lanesOn)})
	}
	return nil
}

// zeroPlane stands in for the operand planes of the sources an op does not
// have, so kir.Eval sees 0 there.
var zeroPlane [laneStride]uint32

// execALU evaluates one ALU/SFU instruction over the warp's active lanes:
// operand planes are sliced once, then the set mask bits are walked.
// kir.Eval is the only definition of op semantics.
//
//vgiw:hotpath
func (r *run) execALU(w *warp, u *uop, mask uint32) {
	in := &u.in
	dst := w.plane(in.Dst)
	switch {
	case in.Op == kir.OpParam:
		v := r.launch.Params[in.Imm]
		for m := mask; m != 0; m &= m - 1 {
			dst[bits.TrailingZeros32(m)&31] = v
		}
	case in.Op.IsGeometry():
		r.execGeom(w, in.Op, dst, mask)
	case u.nsrc == 0:
		// No register operands (constants): one value for every lane.
		v := kir.Eval(in.Op, 0, 0, 0, in.Imm)
		for m := mask; m != 0; m &= m - 1 {
			dst[bits.TrailingZeros32(m)&31] = v
		}
	default:
		a, b, c := &zeroPlane, &zeroPlane, &zeroPlane
		switch u.nsrc {
		case 3:
			c = w.plane(in.Src[2])
			fallthrough
		case 2:
			b = w.plane(in.Src[1])
			fallthrough
		default:
			a = w.plane(in.Src[0])
		}
		op, imm := in.Op, in.Imm
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dst[l] = kir.Eval(op, a[l], b[l], c[l], imm)
		}
	}
}

// execGeom resolves a geometry op for the active lanes without dividing:
// TID is the warp's base plus the lane, TIDX/TIDY read the launch's tables
// at the warp's CTA-local base, and every other geometry op is uniform over
// the CTA, so it is resolved once for the warp instruction.
//
//vgiw:hotpath
func (r *run) execGeom(w *warp, op kir.Op, dst *[laneStride]uint32, mask uint32) {
	var table []uint32
	switch op {
	case kir.OpTID:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dst[l] = uint32(w.tid0 + l)
		}
		return
	case kir.OpTIDX:
		table = r.geom.TIDX[w.loc0:]
	case kir.OpTIDY:
		table = r.geom.TIDY[w.loc0:]
	default:
		v := r.geom.At(op, w.tid0)
		for m := mask; m != 0; m &= m - 1 {
			dst[bits.TrailingZeros32(m)&31] = v
		}
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m) & 31
		dst[l] = table[l]
	}
}

// execMem performs a coalesced memory access for the active lanes and
// returns the completion cycle of the slowest transaction plus the number of
// transactions generated (line transactions for global memory, conflicting
// bank groups for shared memory).
func (r *run) execMem(w *warp, in *kir.Instr, mask uint32) (int64, int, error) {
	write := in.Op.IsStore()
	sharedSpace := in.Op.IsShared()
	lineWords := int64(r.m.cfg.Mem.L1.LineBytes / 4)
	banks := int64(r.m.cfg.Mem.SharedBanks)

	addrs := w.plane(in.Src[0])
	var data *[laneStride]uint32 // stored values (stores) or the destination (loads)
	if write {
		data = w.plane(in.Src[1])
	} else {
		data = w.plane(in.Dst)
	}
	space := r.global
	if sharedSpace {
		space = r.shared[w.cta]
	}

	done := r.cycle + 1
	// ids collects the distinct line (global) or bank (shared) numbers the
	// active lanes touch, deduped in lane order with a linear scan — the warp
	// is at most 32 lanes wide, and unlike a map the resulting access order
	// is reproducible (bank/port timing depends on it).
	ids := r.memScratch[:0]
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m) & 31
		addr := int64(int32(addrs[l]) + in.Imm)
		if addr < 0 || addr >= int64(len(space)) {
			kind := "global"
			if sharedSpace {
				kind = "shared"
			}
			return 0, 0, fmt.Errorf("simt: thread %d: %s access out of bounds: %d (size %d)",
				w.tid0+l, kind, addr, len(space))
		}
		if write {
			space[addr] = data[l]
		} else {
			data[l] = space[addr]
		}
		id := addr / lineWords
		if sharedSpace {
			id = addr % banks
		}
		dup := false
		for _, v := range ids {
			if v == id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	r.memScratch = ids

	if sharedSpace {
		// Bank conflicts serialize; each distinct bank is one transaction.
		r.res.ShTrans += uint64(len(ids))
		for _, b := range ids {
			if t := r.sys.AccessShared(b, r.cycle); t > done {
				done = t
			}
		}
		return done, len(ids), nil
	}
	// Coalescing: one transaction per distinct 128B line (Fermi-style).
	r.res.L1Trans += uint64(len(ids))
	for _, line := range ids {
		if t := r.sys.AccessLine(line, write, r.cycle); t > done {
			done = t
		}
	}
	return done, len(ids), nil
}

// issueTerm executes a block terminator: branch resolution, divergence-stack
// maintenance, reconvergence pops, barrier arrival, and thread retirement.
func (r *run) issueTerm(w *warp, t kir.Terminator) {
	e := w.top()
	r.res.WarpInstrs++
	r.res.ThreadInstrs += uint64(bits.OnesCount32(e.mask))

	switch t.Kind {
	case kir.TermRet:
		exiting := e.mask
		w.active &^= exiting
		for i := range w.stack {
			w.stack[i].mask &^= exiting
		}
		w.stack = w.stack[:len(w.stack)-1]
		r.popEmpty(w)
		if w.active == 0 || len(w.stack) == 0 {
			r.retireWarp(w)
			return
		}

	case kir.TermJump:
		e.block = t.Then
		e.instr = 0
		r.reconverge(w)

	case kir.TermBranch:
		r.countRF(1, 0) // the condition register read
		cond := w.plane(t.Cond)
		var maskThen uint32
		for m := e.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			if cond[l] != 0 {
				maskThen |= 1 << l
			}
		}
		maskElse := e.mask &^ maskThen
		switch {
		case maskElse == 0:
			e.block, e.instr = t.Then, 0
		case maskThen == 0:
			e.block, e.instr = t.Else, 0
		default:
			r.res.Divergences++
			d := r.ipdom[e.block]
			full := e.mask
			if r.sink.Enabled(trace.CatSIMT) {
				r.sink.Emit(trace.Event{Name: "diverge", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
					Track: r.tr.div, Ts: r.cycle,
					K1: "warp", V1: int64(w.id), K2: "block", V2: int64(e.block), K3: "depth", V3: int64(len(w.stack) + 2)})
			}
			// Continuation at the reconvergence point, then the two paths.
			*e = stackEntry{block: d, instr: 0, rpc: e.rpc, mask: full}
			w.stack = append(w.stack,
				stackEntry{block: t.Else, instr: 0, rpc: d, mask: maskElse},
				stackEntry{block: t.Then, instr: 0, rpc: d, mask: maskThen},
			)
		}
		r.reconverge(w)
	}

	w.readyAt = r.cycle + 1 + r.m.cfg.BranchLat
	r.checkBarrier(w)
}

// reconverge pops stack levels whose control reached their reconvergence
// point, then drops empty-mask levels (all lanes exited).
func (r *run) reconverge(w *warp) {
	pops := 0
	for len(w.stack) > 0 {
		e := w.top()
		if e.mask == 0 || (e.rpc >= 0 && e.block == e.rpc && e.instr == 0) {
			w.stack = w.stack[:len(w.stack)-1]
			pops++
			continue
		}
		break
	}
	if pops > 0 && r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "reconverge", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "warp", V1: int64(w.id), K2: "pops", V2: int64(pops), K3: "depth", V3: int64(len(w.stack))})
	}
	if len(w.stack) == 0 {
		r.retireWarp(w)
	}
}

func (r *run) popEmpty(w *warp) {
	for len(w.stack) > 0 && w.top().mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	// A revealed entry may itself sit at its reconvergence point.
	if len(w.stack) > 0 {
		r.reconverge(w)
	}
}

func (r *run) retireWarp(w *warp) {
	if w.done {
		return
	}
	w.done = true
	r.live--
	// A retired warp never reads its registers again.
	r.spareRF = append(r.spareRF, w.rf)
	r.spareReady = append(r.spareReady, w.regReady)
	w.rf, w.regReady = nil, nil
	if r.liveCTA[w.cta]--; r.liveCTA[w.cta] == 0 {
		r.ctasLive--
	}
	r.releaseBarrier(w.cta)
}

// checkBarrier stalls the warp if its next block is a barrier block and the
// rest of the CTA has not arrived yet.
func (r *run) checkBarrier(w *warp) {
	if w.done || len(w.stack) == 0 {
		return
	}
	e := w.top()
	if e.instr != 0 || !r.k.Blocks[e.block].Barrier {
		return
	}
	r.barriers[w.cta]++
	w.atBarrier = true
	r.res.Barriers++
	if r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "barrier.wait", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "warp", V1: int64(w.id), K2: "cta", V2: int64(w.cta), K3: "waiting", V3: int64(r.barriers[w.cta])})
	}
	r.releaseBarrier(w.cta)
}

// releaseBarrier opens the barrier once every live warp of the CTA waits,
// and queues the released warps.
func (r *run) releaseBarrier(cta int) {
	if r.barriers[cta] == 0 {
		return
	}
	if r.barriers[cta] < r.liveCTA[cta] {
		return
	}
	for _, w := range r.warps {
		if w.cta == cta && w.atBarrier {
			w.atBarrier = false
			if w.readyAt < r.cycle+1 {
				w.readyAt = r.cycle + 1
			}
			r.schedule(w)
		}
	}
	if r.sink.Enabled(trace.CatSIMT) {
		r.sink.Emit(trace.Event{Name: "barrier.release", Cat: trace.CatSIMT, Phase: trace.PhaseInstant,
			Track: r.tr.div, Ts: r.cycle,
			K1: "cta", V1: int64(cta), K2: "released", V2: int64(r.barriers[cta])})
	}
	r.barriers[cta] = 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
