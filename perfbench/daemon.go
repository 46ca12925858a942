package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/core"
	"vgiw/internal/fleet"
	"vgiw/internal/kernels"
	"vgiw/internal/server"
)

// daemonClients is the number of closed-loop clients: each sends its next
// job only after the previous one returned, the way vgiwctl's slots behave.
const daemonClients = 2

// daemonStream is how many jobs each client's stream holds; a run ends at
// its deadline long before a client reaches the end.
const daemonStream = 4000

// daemonRSSJobs is the job count at which the daemon's peak resident set
// is read. vgiwd's resident set grows with every job it has answered, so a
// reading at the end of the run would grow with throughput: a faster daemon
// would read as a bigger one.
const daemonRSSJobs = 1000

// daemonWorkload drives the real vgiwd binary over loopback HTTP with a
// seeded mix of fresh kernel jobs, store-answered repeats and kasm compile
// jobs.
type daemonWorkload struct {
	bin, work string
	seed      int64

	dir    string
	d      *daemon
	hc     *http.Client
	client *fleet.Client

	streams [][]MixJob
	jobs    atomic.Int64 // jobs answered in the measurement
	rssMB   float64      // peak resident set at daemonRSSJobs jobs
	rssErr  error
	// srcWant is each kernel's compile report, from the warm-up's source
	// job and checked against an in-process compile; every later source job
	// of that kernel must return these bytes.
	srcWant map[string]json.RawMessage
	ws      map[string]*kernels.Workload
}

func newDaemonWorkload(bin, work string, seed int64) *daemonWorkload {
	return &daemonWorkload{bin: bin, work: work, seed: seed}
}

func (w *daemonWorkload) Setup(ctx context.Context) error {
	if err := w.Close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.work, "store-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.d, err = startDaemon(ctx, w.bin, dir, 0); err != nil {
		return err
	}
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}}
	w.client = &fleet.Client{Base: w.d.URL, HTTP: w.hc}

	warm, streams := DaemonMix(w.seed, daemonClients, daemonStream)
	w.streams = streams
	w.ws = make(map[string]*kernels.Workload)
	w.srcWant = make(map[string]json.RawMessage)
	for _, spec := range kernels.All() {
		kw, err := kernels.NewWorkload(spec, mixScale)
		if err != nil {
			return err
		}
		w.ws[spec.Name] = kw
	}
	// Warm-up: one fresh job and one source job per kernel, so the
	// daemon's artifact cache holds every kernel before measuring.
	var jobs []bench.JobSpec
	for i, spec := range warm {
		jobs = append(jobs, spec, bench.JobSpec{Source: SourceText(w.ws[spec.Kernel], "warm", i)})
	}
	views := make([]*server.JobView, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += daemonClients {
				views[i], errs[i] = w.client.Submit(ctx, jobs[i], true)
			}
		}(c)
	}
	wg.Wait()
	for i, v := range views {
		if errs[i] != nil {
			return fmt.Errorf("warm-up job %d: %w", i, errs[i])
		}
		if v.State != server.StateDone {
			return fmt.Errorf("warm-up job %d: %s: %s", i, v.State, v.Reason)
		}
		if jobs[i].Source != "" {
			name := warm[i/2].Kernel
			if err := checkCompileReport(v.Result, w.ws[name], bench.DefaultOptions().VGIW); err != nil {
				return fmt.Errorf("warm-up source job of %s: %w", name, err)
			}
			w.srcWant[name] = v.Result
		}
	}
	return nil
}

// compileFigures is what a compile report says about a kernel, block by
// block.
type compileFigures struct {
	Kernel                    string
	Blocks, Instrs, Regs, LVs int
	Labels                    []string
	Nodes, Replicas           []int
	AvgHops                   []float64
}

// checkCompileReport compares a source job's compile report with an
// in-process compile and placement of the registry kernel the source was
// printed from, through core.Machine: the kernel's name, size and live
// values, and each block's label, node count, replication and average hop
// latency.
func checkCompileReport(got json.RawMessage, w *kernels.Workload, cfg core.Config) error {
	var rep server.CompileReport
	if err := json.Unmarshal(got, &rep); err != nil {
		return fmt.Errorf("compile report: %w", err)
	}
	have := compileFigures{Kernel: rep.Kernel, Blocks: rep.Blocks, Instrs: rep.Instrs, Regs: rep.Regs, LVs: rep.LiveValues}
	for _, b := range rep.Placements {
		have.Labels = append(have.Labels, b.Label)
		have.Nodes = append(have.Nodes, b.Nodes)
		have.Replicas = append(have.Replicas, b.Replicas)
		have.AvgHops = append(have.AvgHops, b.AvgHops)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return err
	}
	ck, err := m.Compile(w.Kernel())
	if err != nil {
		return err
	}
	prep, err := m.Prepare(ck)
	if err != nil {
		return err
	}
	k := ck.Kernel
	want := compileFigures{Kernel: k.Name, Blocks: len(k.Blocks), Instrs: k.NumInstrs(), Regs: k.NumRegs, LVs: ck.LV.NumIDs}
	for bi, p := range prep.Placements {
		want.Labels = append(want.Labels, k.Blocks[bi].Label)
		want.Nodes = append(want.Nodes, len(p.Graph.Nodes))
		want.Replicas = append(want.Replicas, prep.Replicas[bi])
		want.AvgHops = append(want.AvgHops, p.AvgHops)
	}
	if !reflect.DeepEqual(have, want) {
		return fmt.Errorf("compile report %+v differs from the in-process compile %+v", have, want)
	}
	return nil
}

// Close stops the daemon (if running) and removes its store.
func (w *daemonWorkload) Close() error {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.dir != "" {
		err := os.RemoveAll(w.dir)
		w.dir = ""
		return err
	}
	return nil
}

// jobRecord is one measured job.
type jobRecord struct {
	kind   JobKind
	fast   bool
	traced bool
	late   bool // a repeat the store did not answer yet (see checkJob)
	rtt    time.Duration
	view   *server.JobView
}

// Measure runs the clients' streams until the deadline.
func (w *daemonWorkload) Measure(ctx context.Context, deadline time.Time, rec *Recorder) *outcome {
	out := newOutcome()
	m0, err := w.client.Metrics(ctx)
	if err != nil {
		out.fail("metrics scrape: %v", err)
		return out
	}
	records := make([][]jobRecord, daemonClients)
	fails := make([][]string, daemonClients)
	w.jobs.Store(0)
	w.rssMB, w.rssErr = 0, nil
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			records[c], fails[c] = w.runClient(ctx, c, deadline, rec)
		}(c)
	}
	wg.Wait()
	out.window = time.Since(t0)
	for c := range records {
		out.attempted += len(records[c])
		for _, f := range fails[c] {
			out.fail("%s", f)
		}
	}
	m1, err := w.client.Metrics(ctx)
	if err != nil {
		out.fail("metrics scrape: %v", err)
		return out
	}
	delta := func(name string) float64 { return float64(m1["vgiwd/"+name] - m0["vgiwd/"+name]) }

	var fresh, executed, hits []float64
	var queue []float64
	exec := map[string][]float64{}
	var tracedRTT, untracedRTT []float64
	var hitsWant, missesWant, late float64
	for _, rs := range records {
		for _, r := range rs {
			ms := r.rtt.Seconds() * 1e3
			if r.view == nil || r.view.Ended == nil {
				continue
			}
			if r.kind == Repeat && !r.late {
				hitsWant++
				hits = append(hits, ms)
				continue
			}
			if r.late {
				late++
			}
			missesWant++
			executed = append(executed, ms)
			if r.kind == Fresh {
				fresh = append(fresh, ms)
				if r.traced {
					tracedRTT = append(tracedRTT, ms)
				} else {
					untracedRTT = append(untracedRTT, ms)
				}
			}
			if r.view.Started != nil {
				queue = append(queue, r.view.Started.Sub(r.view.Created).Seconds()*1e3)
				exec[execClass(r)] = append(exec[execClass(r)], r.view.Ended.Sub(*r.view.Started).Seconds()*1e3)
			}
		}
	}
	// The store must have answered exactly the repeats that came back
	// marked as store hits, and nothing else.
	if delta("store_hits") != hitsWant || delta("store_misses") != missesWant {
		out.fail("store answered %v hits / %v misses, want %v / %v",
			delta("store_hits"), delta("store_misses"), hitsWant, missesWant)
	}
	// The op a daemon user waits for is a fresh design-point job; store
	// hits and compile jobs have their own per-layer latencies.
	out.opMS = fresh
	switch final := w.d.stop(); {
	case w.rssErr != nil:
		out.fail("daemon resident set: %v", w.rssErr)
	case w.rssMB == 0:
		fmt.Fprintf(os.Stderr, "perfbench: only %d jobs ran; peak_rss_mb is the daemon's whole-run peak\n", w.jobs.Load())
		out.e2e["peak_rss_mb"] = final
	default:
		out.e2e["peak_rss_mb"] = w.rssMB
	}
	w.d = nil

	l := out.layer
	l["server.queue_wait_ms"] = medianOf(queue)
	for _, k := range []string{"timed", "fast", "source"} {
		l["server.exec_ms."+k] = medianOf(exec[k])
	}
	l["server.deduped"] = delta("jobs_deduped")
	l["server.rejected"] = delta("jobs_rejected")
	l["server.job_ms.p50"] = medianOf(executed)
	l["server.job_ms.p95"] = percentile(executed, 95)
	l["store.hit_ratio"] = ratio(uint64(delta("store_hits")), uint64(delta("store_hits")+delta("store_misses")))
	l["store.errors"] = delta("store_errors")
	l["store.hit_ms.p50"] = medianOf(hits)
	l["store.late_misses"] = late
	if rec != nil {
		// The round-trip span's self time: what the job spent outside
		// the server's queue and execution (or store lookup) intervals.
		var self []float64
		for _, t := range SelfTimes(rec.Spans()) {
			if d, ok := t["server.job"]; ok {
				self = append(self, d.Seconds()*1e3)
			}
		}
		l["server.overhead_ms"] = medianOf(self)
		l["trace.overhead_s"] = (medianOf(tracedRTT) - medianOf(untracedRTT)) / 1e3
	}
	return out
}

func execClass(r jobRecord) string {
	switch {
	case r.kind == Source:
		return "source"
	case r.fast:
		return "fast"
	}
	return "timed"
}

// runClient is one closed-loop client: it sends its stream's jobs one at a
// time until the deadline and checks every answer. Traced, every other job
// records a span for its round trip with the server's queue and execution
// intervals as children.
func (w *daemonWorkload) runClient(ctx context.Context, c int, deadline time.Time, rec *Recorder) ([]jobRecord, []string) {
	var out []jobRecord
	var fails []string
	// execs holds, per fresh job's stream index, the result of every
	// execution of its spec: the first, then any repeat that missed the
	// store and ran again.
	execs := map[int][]json.RawMessage{}
	stream := w.streams[c]
	for i, job := range stream {
		if !time.Now().Before(deadline) {
			break
		}
		spec := job.Spec
		if job.Kind == Source {
			spec = bench.JobSpec{Source: SourceText(w.ws[job.Kernel], fmt.Sprintf("c%d", c), i)}
		}
		r := rec
		if i%2 == 0 {
			r = nil
		}
		op := r.NewOp()
		sp := r.Begin(op, 0, "server.job")
		t0 := time.Now()
		v, err := w.client.Submit(ctx, spec, true)
		rtt := time.Since(t0)
		r.End(sp)
		if w.jobs.Add(1) == daemonRSSJobs {
			w.rssMB, w.rssErr = w.d.peakRSSMB()
		}
		jr := jobRecord{kind: job.Kind, fast: spec.Fast, traced: r != nil, rtt: rtt, view: v}
		out = append(out, jr)
		if err != nil {
			fails = append(fails, fmt.Sprintf("client %d job %d (%s): %v", c, i, job.Kind, err))
			continue
		}
		if v.Started != nil {
			r.Add(op, sp, "server.queue", v.Created, *v.Started)
			if v.Ended != nil {
				r.Add(op, sp, "server.exec", *v.Started, *v.Ended)
			}
		} else if v.Ended != nil {
			r.Add(op, sp, "store.hit", v.Created, *v.Ended)
		}
		msg, late := checkJob(job, v, execs[job.Of], w.srcWant[job.Kernel])
		out[len(out)-1].late = late
		if msg != "" {
			fails = append(fails, fmt.Sprintf("client %d job %d (%s): %s", c, i, job.Kind, msg))
			continue
		}
		switch {
		case job.Kind == Fresh:
			execs[i] = []json.RawMessage{v.Result}
		case late:
			execs[job.Of] = append(execs[job.Of], v.Result)
		}
	}
	return out, fails
}

// checkJob validates one answer: every job must end done; a fresh job must
// have executed and report its kernel; a repeat the store answers must
// return the bytes of an execution of its spec; a source job must return
// the kernel's warm-up compile report. It reports a repeat the store did
// not answer as late: the daemon writes a result to its store only after it
// has answered the job, so a repeat sent right after its first execution
// can miss the store and execute again. Such a repeat must match the first
// execution in canonical form (host timings differ), and the store may then
// hold either execution's bytes.
func checkJob(job MixJob, v *server.JobView, execs []json.RawMessage, srcWant json.RawMessage) (msg string, late bool) {
	if v.State != server.StateDone {
		return fmt.Sprintf("ended %s: %s", v.State, v.Reason), false
	}
	switch job.Kind {
	case Fresh:
		if v.Cached != "" {
			return fmt.Sprintf("fresh design point served from %q", v.Cached), false
		}
		var rep bench.JSONReport
		if err := json.Unmarshal(v.Result, &rep); err != nil {
			return fmt.Sprintf("result: %v", err), false
		}
		if len(rep.Runs) != 1 || rep.Runs[0].Kernel != job.Spec.Kernel {
			return "result does not report the submitted kernel", false
		}
	case Repeat:
		if len(execs) == 0 {
			return "repeat of a job that did not complete", false
		}
		if v.Cached == "store" {
			for _, e := range execs {
				if bytes.Equal(v.Result, e) {
					return "", false
				}
			}
			return "stored result differs from every execution of its spec", false
		}
		if !sameCanonical(v.Result, execs[0]) {
			return "re-executed repeat differs from its first execution", true
		}
		return "", true
	case Source:
		if v.Cached != "" {
			return fmt.Sprintf("fresh source served from %q", v.Cached), false
		}
		if !bytes.Equal(v.Result, srcWant) {
			return "compile report differs from the kernel's warm-up report", false
		}
	}
	return "", false
}

// sameCanonical reports whether two kernel-job results have byte-identical
// canonical forms (host telemetry stripped).
func sameCanonical(a, b json.RawMessage) bool {
	var ra, rb bench.JSONReport
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
		return false
	}
	ca, errA := json.Marshal(ra.Canonical())
	cb, errB := json.Marshal(rb.Canonical())
	return errA == nil && errB == nil && bytes.Equal(ca, cb)
}
