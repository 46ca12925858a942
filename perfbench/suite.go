package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/kernels"
	"vgiw/internal/power"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
)

// suiteScale is BENCH_trace.json's scale: every sweep is checked against
// that baseline at tolerance 0.
const suiteScale = 2

// suiteWorkers is the harness parallelism of every sweep.
const suiteWorkers = 2

// suiteWorkload sweeps the full registry on VGIW, SIMT and SGMF in timed
// mode through bench.RunMatrixCtx, with one artifact cache warmed during
// set-up.
type suiteWorkload struct {
	root string
	rng  *rand.Rand

	base map[string]float64 // BENCH_trace.json series
	opt  bench.Options
	// cost ranks the kernels longest first (see longestFirst).
	cost []kernels.Spec

	// arts feeds the traced sweeps, which call the layers themselves.
	arts map[string]*kernelArtifacts
}

// kernelArtifacts is what one kernel's traced run needs: the products the
// artifact cache would otherwise hold.
type kernelArtifacts struct {
	w      *kernels.Workload
	prep   *core.Prepared
	cks    *compile.CompiledKernel
	mapped *sgmf.Mapped // nil when the kernel is not SGMF-mappable
}

func newSuiteWorkload(root string, seed int64) *suiteWorkload {
	return &suiteWorkload{root: root, rng: rand.New(rand.NewSource(seed))}
}

func (s *suiteWorkload) Setup(ctx context.Context) error {
	b, err := bench.LoadBaseline(filepath.Join(s.root, "BENCH_trace.json"))
	if err != nil {
		return err
	}
	if b.Kind() != "metrics" || b.Snapshot.Scale != suiteScale {
		return fmt.Errorf("suite: %s is not a scale-%d metrics snapshot", b.Path, suiteScale)
	}
	s.base = b.Series()
	s.cost = longestFirst(kernels.All(), s.base)
	s.opt = bench.DefaultOptions()
	s.opt.Scale = suiteScale
	s.opt.Parallelism = suiteWorkers
	s.opt.Cache = bench.NewArtifactCache()
	// The warm-up sweep fills the cache; it is checked like any other and
	// claims kernels in the same order as the measured sweeps.
	_, err = s.sweep(ctx)
	return err
}

func (s *suiteWorkload) Close() error { return nil }

// longestFirst orders specs by the simulated SIMT thread instructions the
// baseline series records for each kernel, most first. The count is a
// host-independent proxy for a kernel's host time, so every set-up and
// measured sweep claims kernels in the same order.
func longestFirst(specs []kernels.Spec, base map[string]float64) []kernels.Spec {
	out := append([]kernels.Spec(nil), specs...)
	sort.SliceStable(out, func(i, j int) bool {
		return base[out[i].Name+"/simt.thread_instrs"] > base[out[j].Name+"/simt.thread_instrs"]
	})
	return out
}

// order is a seed-derived claim order for one sweep: longest kernel first,
// with each neighbouring pair swapped at random. Two workers draining a
// longest-first queue finish together, so the sweep time measures the
// simulators rather than how late the longest kernels happened to be
// claimed — a uniformly random order spreads single sweeps by ±20%.
func (s *suiteWorkload) order() []kernels.Spec {
	out := append([]kernels.Spec(nil), s.cost...)
	for i := 0; i+1 < len(out); i += 2 {
		if s.rng.Intn(2) == 1 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	return out
}

// sweepStats is one untraced sweep's measurement.
type sweepStats struct {
	wall    time.Duration
	stages  bench.StageTimes
	elapsed time.Duration // Σ per-kernel Elapsed
	cache   float64       // artifact-cache hit ratio over the sweep
	mallocs uint64
}

// sweep runs one untraced sweep and checks it against the baseline.
func (s *suiteWorkload) sweep(ctx context.Context) (*sweepStats, error) {
	specs := s.order()
	c0 := s.opt.Cache.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	runs, err := bench.RunMatrixCtx(ctx, specs, s.opt)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("suite sweep: %w", err)
	}
	c1 := s.opt.Cache.Stats()
	st := &sweepStats{wall: wall, mallocs: m1.Mallocs - m0.Mallocs}
	for _, kr := range runs {
		st.stages.Add(kr.Stages)
		st.elapsed += kr.Elapsed
	}
	hits := c1.HitsTotal() - c0.HitsTotal()
	if n := hits + c1.MissesTotal() - c0.MissesTotal(); n > 0 {
		st.cache = float64(hits) / float64(n)
	}
	if msg := exactMismatch(flatMetrics(runs), s.base); msg != "" {
		return nil, fmt.Errorf("suite sweep differs from BENCH_trace.json: %s", msg)
	}
	return st, nil
}

// flatMetrics is the flattened metric registry of a sweep.
func flatMetrics(runs []*bench.KernelRun) map[string]uint64 {
	return bench.CollectMetrics(runs).Flat()
}

// exactMismatch compares a sweep's flattened registry with a baseline
// series at tolerance 0. It returns "" when they are identical, otherwise a
// description naming the first (by name) differing metrics.
func exactMismatch(got map[string]uint64, want map[string]float64) string {
	var diffs []string
	for name, wv := range want {
		gv, ok := got[name]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: missing (baseline %g)", name, wv))
		case float64(gv) != wv:
			diffs = append(diffs, fmt.Sprintf("%s: %d, baseline %g", name, gv, wv))
		}
	}
	for name, gv := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %d, not in baseline", name, gv))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	more := ""
	if len(diffs) > 3 {
		more = fmt.Sprintf(" (and %d more)", len(diffs)-3)
		diffs = diffs[:3]
	}
	return strings.Join(diffs, "; ") + more
}

// Measure runs sweeps until the deadline. Traced, it cycles through three
// kinds of sweep: a bench.RunMatrixCtx sweep for the harness telemetry, and
// two sweeps on the benchmark's own worker pool, which calls the layers
// itself — one untraced, one under spans. The pool's two kinds run the same
// code, so their difference is the tracing overhead. Every kind is checked
// against the same baseline at tolerance 0, so a traced sweep that passes
// has the registry of every untraced one.
func (s *suiteWorkload) Measure(ctx context.Context, deadline time.Time, rec *Recorder) *outcome {
	out := newOutcome()
	if rec != nil {
		if err := s.buildArtifacts(rec); err != nil {
			out.fail("suite artifacts: %v", err)
			return out
		}
	}
	var walls, poolWalls, tracedWalls []float64
	var untraced []*sweepStats
	var traced []*poolSweep
	t0 := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		out.attempted++
		if rec != nil && i%3 != 0 {
			r := rec
			if i%3 == 1 {
				r = nil
			}
			ps, err := s.poolSweep(ctx, r)
			if err != nil {
				out.fail("%v", err)
				continue
			}
			if r == nil {
				poolWalls = append(poolWalls, ps.wall.Seconds())
				continue
			}
			traced = append(traced, ps)
			tracedWalls = append(tracedWalls, ps.wall.Seconds())
			continue
		}
		st, err := s.sweep(ctx)
		if err != nil {
			out.fail("%v", err)
			continue
		}
		untraced = append(untraced, st)
		walls = append(walls, st.wall.Seconds()*1e3)
	}
	out.window = time.Since(t0)
	out.opMS = walls
	out.e2e["peak_rss_mb"] = selfPeakRSSMB()
	if rec == nil {
		return out
	}
	s.layerMetrics(out, untraced, traced, rec)
	out.layer["trace.overhead_s"] = medianOf(tracedWalls) - medianOf(poolWalls)
	return out
}

// buildArtifacts builds every kernel's workload and compile/place products
// the way the artifact cache does, under spans of one set-up op.
func (s *suiteWorkload) buildArtifacts(rec *Recorder) error {
	op := rec.NewOp()
	root := rec.Begin(op, 0, "perfbench.setup")
	defer rec.End(root)
	s.arts = make(map[string]*kernelArtifacts)
	for _, spec := range kernels.All() {
		a := &kernelArtifacts{}
		var err error
		sp := rec.Begin(op, root, "kernels.build")
		a.w, err = kernels.NewWorkload(spec, suiteScale)
		rec.End(sp)
		if err != nil {
			return err
		}
		mv, err := core.NewMachine(s.opt.VGIW)
		if err != nil {
			return err
		}
		ck, err := mv.Compile(a.w.Kernel())
		if err != nil {
			return err
		}
		if a.prep, err = mv.Prepare(ck); err != nil {
			return err
		}
		if a.cks, err = compile.Compile(a.w.Kernel()); err != nil {
			return err
		}
		if spec.SGMF && !s.opt.SkipSGMF {
			mg, err := sgmf.NewMachine(s.opt.SGMF)
			if err != nil {
				return err
			}
			k := a.w.Kernel()
			g, err := mg.Translate(k)
			if err != nil {
				return err
			}
			p, err := mg.PlaceGraph(k.Name, g)
			if err != nil {
				return err
			}
			a.mapped = &sgmf.Mapped{Kernel: k, Placement: p}
		}
		s.arts[spec.Name] = a
	}
	return nil
}

// poolSweep is one sweep run by the benchmark's own worker pool.
type poolSweep struct {
	op   int
	wall time.Duration
	runs []*bench.KernelRun
}

// poolSweep runs the registry on suiteWorkers workers, calling each layer
// under a span (none when rec is nil), and checks the result against the
// baseline. Workers poll ctx
// once per kernel: each item is a whole kernel simulation.
//
//vgiw:coarsepoll
func (s *suiteWorkload) poolSweep(ctx context.Context, rec *Recorder) (*poolSweep, error) {
	specs := s.order()
	op := rec.NewOp()
	t0 := time.Now()
	root := rec.Begin(op, 0, "bench.sweep")
	runs := make([]*bench.KernelRun, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(suiteWorkers)
	for w := 0; w < suiteWorkers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				runs[i], errs[i] = s.runTraced(ctx, rec, op, root, specs[i])
			}
		}()
	}
	wg.Wait()
	rec.End(root)
	ps := &poolSweep{op: op, wall: time.Since(t0), runs: runs}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("pool sweep: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if msg := exactMismatch(flatMetrics(runs), s.base); msg != "" {
		return nil, fmt.Errorf("pool sweep differs from BENCH_trace.json: %s", msg)
	}
	return ps, nil
}

// runTraced is bench.RunOneCtx on prebuilt artifacts, one span per call
// into a layer.
func (s *suiteWorkload) runTraced(ctx context.Context, rec *Recorder, op, parent int, spec kernels.Spec) (*bench.KernelRun, error) {
	ks := rec.Begin(op, parent, "bench.kernel")
	defer rec.End(ks)
	a := s.arts[spec.Name]
	t0 := time.Now()
	kr := &bench.KernelRun{Spec: spec, Blocks: len(a.prep.CK.Kernel.Blocks)}

	sp := rec.Begin(op, ks, "kernels.image")
	global := a.w.Global()
	rec.End(sp)
	sp = rec.Begin(op, ks, "core.run")
	mv, err := core.NewMachine(s.opt.VGIW)
	if err == nil {
		kr.VGIW, err = mv.RunPreparedCtx(ctx, a.prep, a.w.Launch, global)
	}
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: vgiw: %w", spec.Name, err)
	}
	if err := s.check(rec, op, ks, a.w, global); err != nil {
		return nil, fmt.Errorf("%s: vgiw output: %w", spec.Name, err)
	}
	kr.EnergyVGIW = power.VGIW(kr.VGIW, s.opt.Power)

	sp = rec.Begin(op, ks, "kernels.image")
	global = a.w.Global()
	rec.End(sp)
	sp = rec.Begin(op, ks, "simt.run")
	kr.SIMT, err = simt.NewMachine(s.opt.SIMT).RunCtx(ctx, a.cks, a.w.Launch, global)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: simt: %w", spec.Name, err)
	}
	if err := s.check(rec, op, ks, a.w, global); err != nil {
		return nil, fmt.Errorf("%s: simt output: %w", spec.Name, err)
	}
	kr.EnergySIMT = power.SIMT(kr.SIMT, s.opt.Power)

	if a.mapped != nil {
		sp = rec.Begin(op, ks, "kernels.image")
		global = a.w.Global()
		rec.End(sp)
		sp = rec.Begin(op, ks, "sgmf.run")
		mg, err := sgmf.NewMachine(s.opt.SGMF)
		if err == nil {
			kr.SGMF, err = mg.RunMappedCtx(ctx, a.mapped, a.w.Launch, global)
		}
		rec.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: sgmf: %w", spec.Name, err)
		}
		if err := s.check(rec, op, ks, a.w, global); err != nil {
			return nil, fmt.Errorf("%s: sgmf output: %w", spec.Name, err)
		}
		kr.EnergySGMF = power.SGMF(kr.SGMF, s.opt.Power)
	}
	kr.Elapsed = time.Since(t0)
	return kr, nil
}

func (s *suiteWorkload) check(rec *Recorder, op, parent int, w *kernels.Workload, global []uint32) error {
	sp := rec.Begin(op, parent, "kernels.check")
	defer rec.End(sp)
	return w.Check(global)
}

// layerMetrics fills the per-layer metrics of the suite workload: harness
// telemetry from the untraced sweeps, self times and simulated counts from
// the traced ones (counts are identical across sweeps).
func (s *suiteWorkload) layerMetrics(out *outcome, untraced []*sweepStats, traced []*poolSweep, rec *Recorder) {
	var inst, comp, place, sim, hit, allocs, idle []float64
	for _, st := range untraced {
		inst = append(inst, st.stages.Instance.Seconds())
		comp = append(comp, st.stages.Compile.Seconds())
		place = append(place, st.stages.Place.Seconds())
		sim = append(sim, st.stages.Simulate.Seconds())
		hit = append(hit, st.cache)
		allocs = append(allocs, float64(st.mallocs))
		idle = append(idle, (time.Duration(suiteWorkers)*st.wall - st.elapsed).Seconds())
	}
	l := out.layer
	l["bench.stage.instance_s"] = medianOf(inst)
	l["bench.stage.compile_s"] = medianOf(comp)
	l["bench.stage.place_s"] = medianOf(place)
	l["bench.stage.simulate_s"] = medianOf(sim)
	l["bench.cache.hit_ratio"] = medianOf(hit)
	l["bench.allocs_per_sweep"] = medianOf(allocs)
	l["bench.worker_idle_s"] = medianOf(idle)

	self := SelfTimes(rec.Spans())
	for _, t := range self {
		if b, ok := t["kernels.build"]; ok {
			l["kernels.build_s"] = b.Seconds()
		}
	}
	perOp := map[string][]float64{}
	var accounted []float64
	for _, ts := range traced {
		t := self[ts.op]
		for _, name := range []string{"core.run", "simt.run", "sgmf.run", "kernels.check", "kernels.image"} {
			perOp[name] = append(perOp[name], t[name].Seconds())
		}
		perOp["bench.self"] = append(perOp["bench.self"], (t["bench.kernel"] + t["bench.sweep"]).Seconds())
		layers := t["core.run"] + t["simt.run"] + t["sgmf.run"] + t["kernels.check"] + t["kernels.image"]
		accounted = append(accounted, layers.Seconds()/(suiteWorkers*ts.wall.Seconds()))
	}
	for name, v := range perOp {
		l[name+"_s"] = medianOf(v)
	}
	l["trace.accounted_frac"] = medianOf(accounted)
	if len(traced) == 0 {
		return
	}
	c := countSweep(traced[0].runs)
	for k, v := range c {
		l[k] = v
	}
	l["core.ns_per_op"] = l["core.run_s"] * 1e9 / c["core.ops"]
	l["simt.ns_per_warp_instr"] = l["simt.run_s"] * 1e9 / c["simt.warp_instrs"]
	l["sgmf.ns_per_op"] = l["sgmf.run_s"] * 1e9 / c["sgmf.ops"]
	delete(l, "sgmf.ops")
}

// countSweep sums a sweep's simulated counts (per sweep, host-independent).
func countSweep(runs []*bench.KernelRun) map[string]float64 {
	var coreCycles, coreOps, reconf, lvcAcc, lvcMiss uint64
	var simtWarp, simtThread, simtCycles, sgmfCycles, sgmfOps uint64
	var speedups []float64
	memAcc := map[string]*[4]uint64{"vgiw": {}, "simt": {}, "sgmf": {}}
	addMem := func(b string, l1a, l1m, l2a, dram uint64) {
		m := memAcc[b]
		m[0] += l1a
		m[1] += l1m
		m[2] += l2a
		m[3] += dram
	}
	for _, kr := range runs {
		v := kr.VGIW
		coreCycles += uint64(v.Cycles)
		for _, n := range v.Ops {
			coreOps += n
		}
		reconf += v.Reconfigs
		lvcAcc += v.LVCStats.Accesses()
		lvcMiss += v.LVCStats.Misses()
		ms := v.MemStats
		addMem("vgiw", ms.L1.Accesses(), ms.L1.Misses(), ms.L2.Accesses(), ms.DRAM.Reads)
		simtWarp += kr.SIMT.WarpInstrs
		simtThread += kr.SIMT.ThreadInstrs
		simtCycles += uint64(kr.SIMT.Cycles)
		ms = kr.SIMT.MemStats
		addMem("simt", ms.L1.Accesses(), ms.L1.Misses(), ms.L2.Accesses(), ms.DRAM.Reads)
		if g := kr.SGMF; g != nil {
			sgmfCycles += uint64(g.Cycles)
			for _, n := range g.Ops {
				sgmfOps += n
			}
			ms = g.MemStats
			addMem("sgmf", ms.L1.Accesses(), ms.L1.Misses(), ms.L2.Accesses(), ms.DRAM.Reads)
		}
		speedups = append(speedups, kr.Speedup())
	}
	out := map[string]float64{
		"core.cycles":           float64(coreCycles),
		"core.ops":              float64(coreOps),
		"core.reconfigs":        float64(reconf),
		"core.lvc.hit_ratio":    ratio(lvcAcc-lvcMiss, lvcAcc),
		"simt.warp_instrs":      float64(simtWarp),
		"simt.cycles":           float64(simtCycles),
		"simt.lane_util":        ratio(simtThread, 32*simtWarp),
		"sgmf.cycles":           float64(sgmfCycles),
		"sgmf.ops":              float64(sgmfOps),
		"bench.speedup_geomean": bench.Geomean(speedups),
	}
	for b, m := range memAcc {
		p := "mem." + b + "."
		out[p+"l1.accesses"] = float64(m[0])
		out[p+"l1.hit_ratio"] = ratio(m[0]-m[1], m[0])
		out[p+"l2.accesses"] = float64(m[2])
		out[p+"dram.reads"] = float64(m[3])
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
