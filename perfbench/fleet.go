package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/fleet"
	"vgiw/internal/kernels"
	"vgiw/internal/server"
)

// fleetWorkers is the number of vgiwd workers a sweep is sharded across;
// each runs one simulation at a time.
const fleetWorkers = 2

// fleetLVCSizes is how many seeded LVC capacities each kernel is swept at.
const fleetLVCSizes = 2

// fleetWorkload shards a seeded matrix across fleetWorkers fresh vgiwd
// workers that share one fresh result store, through a fleet.Coordinator
// in this process.
type fleetWorkload struct {
	root, bin, work string
	seed            int64

	tasks []fleet.Task
	want  []byte // canonical single-process report of the matrix
}

func newFleetWorkload(root, bin, work string, seed int64) *fleetWorkload {
	return &fleetWorkload{root: root, bin: bin, work: work, seed: seed}
}

// Setup generates the matrix and computes its single-process reference
// with bench.RunMatrix over the unique specs, claimed longest first.
func (f *fleetWorkload) Setup(ctx context.Context) error {
	b, err := bench.LoadBaseline(filepath.Join(f.root, "BENCH_trace.json"))
	if err != nil {
		return err
	}
	base := b.Series()
	specs := FleetMatrix(f.seed, fleetLVCSizes)
	f.tasks = f.tasks[:0]
	for _, s := range specs {
		f.tasks = append(f.tasks, fleet.Task{Spec: s})
	}
	cache := bench.NewArtifactCache()
	byKB := map[int][]kernels.Spec{}
	var kbs []int
	seen := map[bench.JobSpec]bool{}
	for _, s := range specs {
		if seen[s] {
			continue
		}
		seen[s] = true
		if byKB[s.LVCKB] == nil {
			kbs = append(kbs, s.LVCKB)
		}
		byKB[s.LVCKB] = append(byKB[s.LVCKB], s.Specs()...)
	}
	runOf := map[bench.JobSpec]*bench.KernelRun{}
	for _, kb := range kbs {
		js := bench.JobSpec{Kernel: byKB[kb][0].Name, Scale: mixScale, LVCKB: kb}
		opt, err := js.Options()
		if err != nil {
			return err
		}
		opt.Parallelism = fleetWorkers
		opt.Cache = cache
		runs, err := bench.RunMatrixCtx(ctx, longestFirst(byKB[kb], base), opt)
		if err != nil {
			return fmt.Errorf("fleet reference: %w", err)
		}
		for _, kr := range runs {
			runOf[bench.JobSpec{Kernel: kr.Spec.Name, Scale: mixScale, LVCKB: kb}] = kr
		}
	}
	ordered := make([]*bench.KernelRun, len(specs))
	for i, s := range specs {
		ordered[i] = runOf[s]
	}
	f.want, err = json.Marshal(bench.BuildJSON(ordered, mixScale).Canonical())
	return err
}

func (f *fleetWorkload) Close() error { return nil }

// fleetSweep is one measured sweep.
type fleetSweep struct {
	wall      time.Duration
	busiest   time.Duration // the busiest worker's summed execution time
	imbalance float64       // max ÷ mean executions per worker
	rssMB     float64       // the largest worker's peak resident set
	reg       map[string]uint64
}

// sweep boots the workers on a fresh shared store, runs the matrix through
// a new coordinator, checks the merged report against the reference, and
// stops the workers. Only the coordinator's Run is timed.
func (f *fleetWorkload) sweep(ctx context.Context, rec *Recorder) (*fleetSweep, error) {
	dir, err := os.MkdirTemp(f.work, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var ds []*daemon
	defer func() {
		for _, d := range ds {
			d.stop()
		}
	}()
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		d, err := startDaemon(ctx, f.bin, dir, 1)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
		urls = append(urls, d.URL)
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	coord, err := fleet.NewCoordinator(fleet.Config{Workers: urls, StoreDir: dir})
	if err != nil {
		return nil, err
	}

	op := rec.NewOp()
	sp := rec.Begin(op, 0, "fleet.sweep")
	t0 := time.Now()
	res, err := coord.Run(ctx, f.tasks)
	wall := time.Since(t0)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("fleet sweep: %w", err)
	}
	merged, err := res.MergedReport()
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, f.want) {
		return nil, fmt.Errorf("merged fleet report differs from the single-process reference")
	}

	fs := &fleetSweep{wall: wall, reg: coord.Metrics().Flat()}
	total := 0
	most := 0
	for _, u := range urls {
		views, err := listJobs(ctx, hc, u)
		if err != nil {
			return nil, err
		}
		var busy time.Duration
		n := 0
		for _, v := range views {
			if v.Started == nil || v.Ended == nil {
				continue
			}
			n++
			busy += v.Ended.Sub(*v.Started)
			rec.Add(op, sp, "server.queue", v.Created, *v.Started)
			rec.Add(op, sp, "server.exec", *v.Started, *v.Ended)
		}
		fs.busiest = max(fs.busiest, busy)
		total += n
		most = max(most, n)
	}
	if total > 0 {
		fs.imbalance = float64(most) * fleetWorkers / float64(total)
	}
	for _, d := range ds {
		fs.rssMB = max(fs.rssMB, d.stop())
	}
	ds = nil
	return fs, nil
}

// listJobs fetches a worker's job list (views without results).
func listJobs(ctx context.Context, hc *http.Client, base string) ([]server.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list jobs at %s: %s", base, resp.Status)
	}
	var body struct {
		Jobs []server.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("list jobs at %s: %w", base, err)
	}
	return body.Jobs, nil
}

// Measure runs sweeps until the deadline; traced, every other sweep records
// spans.
func (f *fleetWorkload) Measure(ctx context.Context, deadline time.Time, rec *Recorder) *outcome {
	out := newOutcome()
	var walls, tracedWalls, rss []float64
	var sweeps []*fleetSweep
	t0 := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		out.attempted++
		r := rec
		if i%2 == 0 {
			r = nil
		}
		fs, err := f.sweep(ctx, r)
		if err != nil {
			out.fail("%v", err)
			continue
		}
		rss = append(rss, fs.rssMB)
		if r != nil {
			tracedWalls = append(tracedWalls, fs.wall.Seconds())
		} else {
			walls = append(walls, fs.wall.Seconds()*1e3)
		}
		sweeps = append(sweeps, fs)
	}
	out.window = time.Since(t0)
	out.opMS = walls
	out.e2e["peak_rss_mb"] = medianOf(rss)
	if rec == nil {
		return out
	}
	var self []float64
	for _, t := range SelfTimes(rec.Spans()) {
		if d, ok := t["fleet.sweep"]; ok {
			self = append(self, d.Seconds())
		}
	}
	var over, imb, req, dedup, disk []float64
	for _, fs := range sweeps {
		over = append(over, (fs.wall - fs.busiest).Seconds())
		imb = append(imb, fs.imbalance)
		req = append(req, float64(fs.reg["fleet/jobs_requeued"]))
		dedup = append(dedup, float64(fs.reg["fleet/jobs_deduped"]))
		disk = append(disk, float64(fs.reg["fleet/store_hits"]))
	}
	l := out.layer
	// The sweep span's self time is when no worker was executing a job.
	l["fleet.self_s"] = medianOf(self)
	l["fleet.dispatch_overhead_s"] = medianOf(over)
	l["fleet.imbalance"] = medianOf(imb)
	l["fleet.requeues"] = medianOf(req)
	l["fleet.ledger_dedups"] = medianOf(dedup)
	l["fleet.disk_hits"] = medianOf(disk)
	l["trace.overhead_s"] = medianOf(tracedWalls) - medianOf(walls)/1e3
	return out
}
