package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSelfTimeNestedOverlapping: a span's self time is its duration minus
// the union of its children's intervals, each clipped to the span.
func TestSelfTimeNestedOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 2, Op: 1, Name: "c", Start: 15, End: 25},
		{ID: 5, Parent: 3, Op: 1, Name: "d", Start: 40, End: 70},   // outlives b
		{ID: 6, Parent: 3, Op: 1, Name: "e", Start: 200, End: 300}, // outside b
		{ID: 7, Op: 2, Name: "root", Start: 0, End: 7},
	}
	got := SelfTimes(spans)
	want := map[int]map[string]time.Duration{
		1: {"root": 60, "a": 10, "b": 20, "c": 10, "d": 30, "e": 100},
		2: {"root": 7},
	}
	for op, names := range want {
		for name, d := range names {
			if got[op][name] != d {
				t.Errorf("op %d %s: self %v, want %v", op, name, got[op][name], d)
			}
		}
	}
	// Same-name spans of one op sum.
	two := []Span{
		{ID: 1, Op: 1, Name: "x", Start: 0, End: 5},
		{ID: 2, Op: 1, Name: "x", Start: 10, End: 13},
	}
	if d := SelfTimes(two)[1]["x"]; d != 8 {
		t.Errorf("summed self time %v, want 8", d)
	}
}

func TestSelfTimeChildrenCoverParent(t *testing.T) {
	p := Span{ID: 1, Start: 0, End: 10}
	kids := []Span{{Start: 0, End: 4}, {Start: 4, End: 8}, {Start: 3, End: 10}}
	if d := selfTime(p, kids); d != 0 {
		t.Errorf("fully covered parent has self time %v", d)
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	if id := off.Begin(off.NewOp(), 0, "x"); id != 0 || off.Spans() != nil {
		t.Fatal("nil recorder recorded a span")
	}
	off.End(0)

	r := NewRecorder()
	op := r.NewOp()
	root := r.Begin(op, 0, "root")
	kid := r.Begin(op, root, "kid")
	r.End(kid)
	at := r.epoch.Add(time.Millisecond)
	r.Add(op, root, "remote", at, at.Add(2*time.Millisecond))
	r.End(root)
	other := r.NewOp()
	r.End(r.Begin(other, 0, "root"))

	spans := r.Spans()
	if len(spans) != 4 || op == other {
		t.Fatalf("spans %+v, ops %d %d", spans, op, other)
	}
	for _, s := range spans[:3] {
		if s.Op != op || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if spans[1].Parent != root || spans[2].Parent != root || spans[0].Parent != 0 {
		t.Errorf("parents not linked: %+v", spans)
	}
	if spans[2].Dur() != 2*time.Millisecond || spans[2].Start != int64(time.Millisecond) {
		t.Errorf("added span %+v", spans[2])
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Spans) != 4 || doc.Spans[1].Name != "kid" {
		t.Errorf("written spans %s (%v)", buf.Bytes(), err)
	}
}
