package simt

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
)

// gtoGoldenFile pins every registry kernel's full Result under the GTO
// scheduler. The metric gate (BENCH_trace.json) only runs the default LRR
// policy, so this is what holds GTO exact across scheduler changes.
const gtoGoldenFile = "testdata/gto_golden.json"

// registryResults runs every registry kernel at scale 1 under cfg, checks
// each output against its host reference, and returns the Results in
// registry order as indented JSON.
func registryResults(t testing.TB, cfg Config) []byte {
	t.Helper()
	var out []*Result
	for _, spec := range kernels.All() {
		w, err := kernels.NewWorkload(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		ck, err := compile.Compile(w.Kernel())
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name, err)
		}
		global := w.Global()
		res, err := NewMachine(cfg).Run(ck, w.Launch, global)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := w.Check(global); err != nil {
			t.Fatalf("%s: output: %v", spec.Name, err)
		}
		out = append(out, res)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGTOGolden compares every registry kernel's GTO Result against the
// checked-in golden byte for byte.
func TestGTOGolden(t *testing.T) {
	want, err := os.ReadFile(gtoGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheduler = SchedGTO
	got := registryResults(t, cfg)
	if bytes.Equal(got, want) {
		return
	}
	var g, w []Result
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if len(g) != len(w) {
		t.Fatalf("GTO golden: %d results, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: GTO result differs from golden:\n got  %+v\n want %+v", w[i].Kernel, g[i], w[i])
		}
	}
	t.Fatal("GTO results differ from " + gtoGoldenFile)
}
