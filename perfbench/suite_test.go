package main

import (
	"strings"
	"testing"

	"vgiw/internal/bench"
)

// TestExactMismatch: the tolerance-0 check passes an exact copy of
// BENCH_trace.json and fails a copy with one value changed, one metric
// missing, or one metric added, naming the metric.
func TestExactMismatch(t *testing.T) {
	b, err := bench.LoadBaseline("../BENCH_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	want := b.Series()
	copyOf := func() map[string]uint64 {
		got := make(map[string]uint64, len(want))
		for k, v := range want {
			got[k] = uint64(v)
		}
		return got
	}
	if msg := exactMismatch(copyOf(), want); msg != "" {
		t.Fatalf("exact copy rejected: %s", msg)
	}
	const name = "lud.internal/vgiw.cycles"
	got := copyOf()
	got[name]++
	if msg := exactMismatch(got, want); !strings.Contains(msg, name) {
		t.Errorf("one changed value not reported by name: %q", msg)
	}
	got = copyOf()
	delete(got, name)
	if msg := exactMismatch(got, want); !strings.Contains(msg, name+": missing") {
		t.Errorf("missing metric not reported: %q", msg)
	}
	got = copyOf()
	got["lud.internal/vgiw.extra"] = 1
	if msg := exactMismatch(got, want); !strings.Contains(msg, "lud.internal/vgiw.extra") {
		t.Errorf("extra metric not reported: %q", msg)
	}
}
