package simt

import (
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
	"vgiw/internal/kir"
)

// BenchmarkSIMTRun runs the SIMT pipeline over every registry kernel at
// scale 1. One op is one pass over the registry; each kernel run gets a fresh
// Machine and a fresh copy of its memory image (Run builds a fresh memory
// system), so every op simulates the same cycles and the steady state is
// fixed. Compilation happens once, outside the timer. Besides ns/op it
// reports the simulated warp instructions per op (machine-independent) and
// the host nanoseconds per warp instruction.
func BenchmarkSIMTRun(b *testing.B) {
	type job struct {
		ck     *compile.CompiledKernel
		w      *kernels.Workload
		launch kir.Launch
	}
	var jobs []job
	for _, spec := range kernels.All() {
		w, err := kernels.NewWorkload(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		ck, err := compile.Compile(w.Kernel())
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, job{ck, w, w.Launch})
	}
	cfg := DefaultConfig()
	var warpInstrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			b.StopTimer()
			global := j.w.Global()
			b.StartTimer()
			res, err := NewMachine(cfg).Run(j.ck, j.launch, global)
			if err != nil {
				b.Fatal(err)
			}
			warpInstrs += res.WarpInstrs
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(warpInstrs)/float64(b.N), "warp-instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(warpInstrs), "ns/warp-instr")
}
