// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed time, checks every output, and prints its metrics as one JSON
// line. See README.md in this directory for the workloads, the metrics and
// how they relate. It is normally started through run.sh, which builds it
// and the vgiwd daemon from source first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run performs its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupRounds = 5

// runSlack is how long past --seconds a run may take before every call in
// flight is cancelled.
const runSlack = 2 * time.Minute

// Metric is one reported metric: its name and unit, as BENCHMARK.json
// declares them.
type Metric struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run reports, on every workload.
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports, on every workload; a
// layer the workload does not exercise reports 0.
var perLayer = []Metric{
	{"bench.stage.instance_s", "s"},
	{"bench.stage.compile_s", "s"},
	{"bench.stage.place_s", "s"},
	{"bench.stage.simulate_s", "s"},
	{"bench.cache.hit_ratio", "ratio"},
	{"bench.allocs_per_sweep", "count"},
	{"bench.worker_idle_s", "s"},
	{"bench.self_s", "s"},
	{"bench.speedup_geomean", "x"},
	{"kernels.build_s", "s"},
	{"kernels.check_s", "s"},
	{"kernels.image_s", "s"},
	{"kernels.clone_s", "s"},
	{"core.run_s", "s"},
	{"core.ns_per_op", "ns"},
	{"core.cycles", "count"},
	{"core.ops", "count"},
	{"core.reconfigs", "count"},
	{"core.lvc.hit_ratio", "ratio"},
	{"simt.run_s", "s"},
	{"simt.ns_per_warp_instr", "ns"},
	{"simt.warp_instrs", "count"},
	{"simt.cycles", "count"},
	{"simt.lane_util", "ratio"},
	{"sgmf.run_s", "s"},
	{"sgmf.ns_per_op", "ns"},
	{"sgmf.cycles", "count"},
	{"mem.vgiw.l1.accesses", "count"},
	{"mem.vgiw.l1.hit_ratio", "ratio"},
	{"mem.vgiw.l2.accesses", "count"},
	{"mem.vgiw.dram.reads", "count"},
	{"mem.simt.l1.accesses", "count"},
	{"mem.simt.l1.hit_ratio", "ratio"},
	{"mem.simt.l2.accesses", "count"},
	{"mem.simt.dram.reads", "count"},
	{"mem.sgmf.l1.accesses", "count"},
	{"mem.sgmf.l1.hit_ratio", "ratio"},
	{"mem.sgmf.l2.accesses", "count"},
	{"mem.sgmf.dram.reads", "count"},
	{"compile.vgiw_s", "s"},
	{"compile.simt_s", "s"},
	{"sgmf.translate_s", "s"},
	{"fabric.place_vgiw_s", "s"},
	{"fabric.place_sgmf_s", "s"},
	{"kasm.roundtrip_s", "s"},
	{"compile.blocks", "count"},
	{"compile.pass_ms.p90", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.exec_ms.timed", "ms"},
	{"server.exec_ms.fast", "ms"},
	{"server.exec_ms.source", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.deduped", "count"},
	{"server.rejected", "count"},
	{"server.job_ms.p50", "ms"},
	{"server.job_ms.p95", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.errors", "count"},
	{"store.hit_ms.p50", "ms"},
	{"store.late_misses", "count"},
	{"fleet.self_s", "s"},
	{"fleet.dispatch_overhead_s", "s"},
	{"fleet.imbalance", "ratio"},
	{"fleet.requeues", "count"},
	{"fleet.ledger_dedups", "count"},
	{"fleet.disk_hits", "count"},
	{"trace.overhead_s", "s"},
	{"trace.accounted_frac", "ratio"},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"suite-timed", "compile-cold", "daemon-mixed", "fleet-sweep"}

// workload is one benchmark workload. Setup may be called several times;
// each call replaces the previous state. Measure runs operations until the
// deadline, with spans when rec is non-nil.
type workload interface {
	Setup(ctx context.Context) error
	Measure(ctx context.Context, deadline time.Time, rec *Recorder) *outcome
	Close() error
}

// outcome is what one workload's measurement produced.
type outcome struct {
	attempted int
	failures  []string
	opMS      []float64          // latency of each successful untraced op
	window    time.Duration      // the measurement's wall time, checks included
	e2e       map[string]float64 // end-to-end metrics the workload computes itself
	layer     map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// MetricValue is one metric as printed.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "how long the measurement runs")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root    = flag.String("root", ".", "repository checkout the benchmark runs against")
		vgiwd   = flag.String("vgiwd", "", "vgiwd binary (daemon-mixed, fleet-sweep)")
	)
	flag.Parse()
	work := filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	var w workload
	switch *name {
	case "suite-timed":
		w = newSuiteWorkload(*root, *seed)
	case "compile-cold":
		w = newCompileWorkload(*seed)
	case "daemon-mixed":
		w = newDaemonWorkload(*vgiwd, work, *seed)
	case "fleet-sweep":
		w = newFleetWorkload(*root, *vgiwd, work, *seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	defer w.Close()
	// A hung layer must not hang the benchmark: everything, set-up
	// included, is cancelled two minutes after the measurement should end.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+runSlack)
	defer cancel()

	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := w.Setup(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var rec *Recorder
	if *traced == 1 {
		rec = NewRecorder()
	}
	out := w.Measure(ctx, time.Now().Add(time.Duration(*seconds)*time.Second), rec)
	if err := w.Close(); err != nil {
		out.fail("teardown: %v", err)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}

	res := Result{Attempted: out.attempted, Failed: len(out.failures), Metrics: map[string]MetricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	op := Summarize(out.opMS)
	values := map[string]float64{"setup_s": medianOf(setups), "op_ms": op.Median}
	if out.window > 0 && out.attempted > res.Failed {
		values["ops_per_s"] = float64(out.attempted-res.Failed) / out.window.Seconds()
	}
	for k, v := range out.e2e {
		values[k] = v
	}
	report(os.Stderr, *name, op, values, out.layer)
	metrics := endToEnd
	if rec != nil {
		values = out.layer
		metrics = perLayer
		if err := writeSpans(*root, *name, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		}
	}
	for _, m := range metrics {
		res.Metrics[m.Name] = MetricValue{Value: values[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report prints every metric by name with its unit, plus the op latency
// summary (median, quartiles, highest supported percentile, sample count),
// for a human reader.
func report(f *os.File, name string, op Summary, e2e, layer map[string]float64) {
	fmt.Fprintf(f, "perfbench %s: %d ops, median %.3f ms (q1 %.3f, q3 %.3f), p%g %.3f ms\n",
		name, op.N, op.Median, op.Q1, op.Q3, op.TailP, op.Tail)
	for _, m := range endToEnd {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	if len(layer) == 0 {
		return
	}
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	for _, n := range names {
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", n, layer[n], units[n])
	}
}

// writeSpans writes the traced run's spans under .bench_build.
func writeSpans(root, name string, rec *Recorder) error {
	dir := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+name+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
