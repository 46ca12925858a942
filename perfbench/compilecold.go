package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/fabric"
	"vgiw/internal/kasm"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
	"vgiw/internal/sgmf"
)

// compileWorkload passes every registry kernel through the compiler
// front- and back-ends — kasm round trip, VGIW compile + place, SIMT
// compile, SGMF translate + place — on fresh kernel copies. Nothing is
// simulated.
type compileWorkload struct {
	rng  *rand.Rand
	opt  bench.Options
	ws   []*kernels.Workload
	want map[string][sha256.Size]byte // per-kernel digest of the compile products
}

func newCompileWorkload(seed int64) *compileWorkload {
	return &compileWorkload{rng: rand.New(rand.NewSource(seed))}
}

func (c *compileWorkload) Setup(ctx context.Context) error {
	c.opt = bench.DefaultOptions()
	c.ws = nil
	c.want = make(map[string][sha256.Size]byte)
	for _, spec := range kernels.All() {
		w, err := kernels.NewWorkload(spec, suiteScale)
		if err != nil {
			return err
		}
		c.ws = append(c.ws, w)
		// The reference compiles the registry IR directly; measured passes
		// compile the kasm round trip of it, so the comparison also checks
		// that printing and parsing lose nothing.
		p, err := c.compileKernel(nil, 0, 0, w, false)
		if err != nil {
			return err
		}
		c.want[spec.Name] = p.digest()
	}
	return nil
}

func (c *compileWorkload) Close() error { return nil }

// compiled holds one kernel's compile products for all three machines.
type compiled struct {
	vgiw  *core.Prepared
	simt  *compile.CompiledKernel
	sgmfK *kir.Kernel       // the translated kernel (nil when not mappable)
	sgmfP *fabric.Placement // its placement
}

// compileKernel compiles and places one kernel for all three machines, one
// span per layer call. With viaKasm, the VGIW compile consumes the kernel
// printed as kasm and parsed back.
func (c *compileWorkload) compileKernel(rec *Recorder, op, parent int, w *kernels.Workload, viaKasm bool) (*compiled, error) {
	clone := func() *kir.Kernel {
		sp := rec.Begin(op, parent, "kernels.clone")
		defer rec.End(sp)
		return w.Kernel()
	}
	out := &compiled{}
	k := clone()
	if viaKasm {
		sp := rec.Begin(op, parent, "kasm.roundtrip")
		parsed, err := kasm.Parse(kasm.Print(k))
		rec.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: kasm: %w", w.Spec.Name, err)
		}
		k = parsed
	}
	mv, err := core.NewMachine(c.opt.VGIW)
	if err != nil {
		return nil, err
	}
	sp := rec.Begin(op, parent, "compile.vgiw")
	ck, err := mv.Compile(k)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: vgiw compile: %w", w.Spec.Name, err)
	}
	sp = rec.Begin(op, parent, "fabric.place_vgiw")
	out.vgiw, err = mv.Prepare(ck)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: vgiw place: %w", w.Spec.Name, err)
	}

	k = clone()
	sp = rec.Begin(op, parent, "compile.simt")
	out.simt, err = compile.Compile(k)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: simt compile: %w", w.Spec.Name, err)
	}

	if w.Spec.SGMF {
		mg, err := sgmf.NewMachine(c.opt.SGMF)
		if err != nil {
			return nil, err
		}
		out.sgmfK = clone()
		sp = rec.Begin(op, parent, "sgmf.translate")
		g, err := mg.Translate(out.sgmfK)
		rec.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: sgmf translate: %w", w.Spec.Name, err)
		}
		sp = rec.Begin(op, parent, "fabric.place_sgmf")
		out.sgmfP, err = mg.PlaceGraph(out.sgmfK.Name, g)
		rec.End(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: sgmf place: %w", w.Spec.Name, err)
		}
	}
	return out, nil
}

// digest hashes every compile product: the compiled kernels, live-value
// count, post-dominators, and each placement's units and hop table.
func (p *compiled) digest() [sha256.Size]byte {
	h := sha256.New()
	ck := p.vgiw.CK
	fmt.Fprintf(h, "vgiw %s lv=%d\n", ck.Kernel, ck.LV.NumIDs)
	for _, pl := range p.vgiw.Placements {
		hashPlacement(h, pl)
	}
	fmt.Fprintf(h, "simt %s ipdom=%v\n", p.simt.Kernel, p.simt.IPDom)
	if p.sgmfK != nil {
		fmt.Fprintf(h, "sgmf %s\n", p.sgmfK)
		hashPlacement(h, p.sgmfP)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func hashPlacement(h hash.Hash, p *fabric.Placement) {
	fmt.Fprintf(h, "nodes=%d replicas=%d units=%v hops=%v avg=%v\n",
		len(p.Graph.Nodes), p.Replicas, p.UnitOf, p.HopSum, p.AvgHops)
}

// pass compiles every kernel once, in a seed-derived order, and checks each
// kernel's products against the set-up reference. It returns the pass's span
// op, the time spent in the compile calls (the checks are not timed) and the
// pass's VGIW block count.
func (c *compileWorkload) pass(rec *Recorder) (op int, spent time.Duration, blocks int, err error) {
	op = rec.NewOp()
	root := rec.Begin(op, 0, "compile.pass")
	defer rec.End(root)
	for _, i := range c.rng.Perm(len(c.ws)) {
		w := c.ws[i]
		t0 := time.Now()
		ks := rec.Begin(op, root, "compile.kernel")
		p, err := c.compileKernel(rec, op, ks, w, true)
		rec.End(ks)
		spent += time.Since(t0)
		if err != nil {
			return op, 0, 0, err
		}
		cs := rec.Begin(op, root, "perfbench.check")
		ok := p.digest() == c.want[w.Spec.Name]
		rec.End(cs)
		if !ok {
			return op, 0, 0, fmt.Errorf("%s: compile products differ from the set-up reference", w.Spec.Name)
		}
		blocks += len(p.vgiw.CK.Kernel.Blocks)
	}
	return op, spent, blocks, nil
}

// compileSpans are the layer calls a compile pass makes, by span name.
var compileSpans = []string{
	"kasm.roundtrip", "compile.vgiw", "fabric.place_vgiw", "compile.simt",
	"sgmf.translate", "fabric.place_sgmf", "kernels.clone",
}

// Measure runs compile passes until the deadline; traced, every other pass
// records spans.
func (c *compileWorkload) Measure(_ context.Context, deadline time.Time, rec *Recorder) *outcome {
	out := newOutcome()
	var untraced, traced []float64
	var tracedOps []int
	blocks := 0
	t0 := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		out.attempted++
		r := rec
		if i%2 == 0 {
			r = nil
		}
		op, d, n, err := c.pass(r)
		if err != nil {
			out.fail("compile pass: %v", err)
			continue
		}
		blocks = n
		if r == nil {
			untraced = append(untraced, d.Seconds()*1e3)
			continue
		}
		traced = append(traced, d.Seconds()*1e3)
		tracedOps = append(tracedOps, op)
	}
	out.window = time.Since(t0)
	out.opMS = untraced
	out.e2e["peak_rss_mb"] = selfPeakRSSMB()
	if rec == nil {
		return out
	}
	self := SelfTimes(rec.Spans())
	for _, name := range compileSpans {
		var v []float64
		for _, op := range tracedOps {
			v = append(v, self[op][name].Seconds())
		}
		out.layer[name+"_s"] = medianOf(v)
	}
	out.layer["compile.blocks"] = float64(blocks)
	out.layer["compile.pass_ms.p90"] = percentile(untraced, 90)
	out.layer["trace.overhead_s"] = (medianOf(traced) - medianOf(untraced)) / 1e3
	return out
}
