package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/server"
)

func jobReport(t *testing.T, cycles int64, elapsedMS float64) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(bench.JSONReport{Scale: 1, Runs: []bench.JSONRun{{Kernel: "k", VGIWCycles: cycles, ElapsedMS: elapsedMS}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckJobRepeats: a store hit must carry the bytes of some execution
// of its spec; a repeat the store missed ran again and must match the first
// execution in canonical form only.
func TestCheckJobRepeats(t *testing.T) {
	first, second := jobReport(t, 10, 1.5), jobReport(t, 10, 2.5)
	other := jobReport(t, 11, 1.5)
	rep := MixJob{Kind: Repeat, Of: 0}
	done := func(cached string, res json.RawMessage) *server.JobView {
		return &server.JobView{State: server.StateDone, Cached: cached, Result: res}
	}
	cases := []struct {
		name  string
		v     *server.JobView
		execs []json.RawMessage
		fail  string
		late  bool
	}{
		{"hit", done("store", first), []json.RawMessage{first}, "", false},
		{"hit of a re-execution", done("store", second), []json.RawMessage{first, second}, "", false},
		{"hit of no execution", done("store", second), []json.RawMessage{first}, "differs from every execution", false},
		{"late, same content", done("", second), []json.RawMessage{first}, "", true},
		{"late, other content", done("", other), []json.RawMessage{first}, "differs from its first execution", true},
		{"failed", &server.JobView{State: server.StateFailed, Reason: "boom"}, []json.RawMessage{first}, "ended failed", false},
	}
	for _, c := range cases {
		msg, late := checkJob(rep, c.v, c.execs, nil)
		if late != c.late || (c.fail == "") != (msg == "") || !strings.Contains(msg, c.fail) {
			t.Errorf("%s: checkJob = %q, late %v; want %q, late %v", c.name, msg, late, c.fail, c.late)
		}
	}
}

// TestCheckCompileReport: the report an in-process server gives for a
// registry kernel's kasm source matches the in-process compile, and the
// same report with one placement figure changed does not.
func TestCheckCompileReport(t *testing.T) {
	spec, ok := kernels.ByName("nw.needle1")
	if !ok {
		t.Fatal("nw.needle1 not in the registry")
	}
	w, err := kernels.NewWorkload(spec, mixScale)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 1})
	defer s.Shutdown(context.Background())
	j, err := s.Submit(bench.JobSpec{Source: SourceText(w, "test", 0)})
	if err != nil {
		t.Fatal(err)
	}
	s.Wait(context.Background(), j)
	v := s.View(j)
	if v.State != server.StateDone {
		t.Fatalf("source job ended %s: %s", v.State, v.Reason)
	}
	cfg := bench.DefaultOptions().VGIW
	if err := checkCompileReport(v.Result, w, cfg); err != nil {
		t.Fatalf("server report rejected: %v", err)
	}
	var rep server.CompileReport
	if err := json.Unmarshal(v.Result, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Placements[len(rep.Placements)-1].Replicas++
	changed, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCompileReport(changed, w, cfg); err == nil {
		t.Error("report with one replica count changed accepted")
	}
}
