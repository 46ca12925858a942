package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded around a call into a layer. Start and
// End are offsets from the recorder's epoch. Parent is the ID of the span
// that caused this one (0 for a root), and Op is shared by every span of one
// benchmark operation (a sweep, a compile pass, a job).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is a
// valid, disabled recorder: every method is a no-op returning zero IDs, so
// the traced and untraced code paths are the same code.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	ops   int
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewOp allocates the ID shared by the spans of one operation.
func (r *Recorder) NewOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// Begin opens a span now and returns its ID; End closes it.
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(r.spans)
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// Add records a span whose interval was measured elsewhere — for example
// from the timestamps a server reports for a job — and returns its ID.
func (r *Recorder) Add(op, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return len(r.spans)
}

// Spans returns a copy of every span recorded so far, in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes every span as one JSON document.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
}

// SelfTimes attributes each span's self time — its duration minus the union
// of its children's intervals, clipped to the span — and sums it by op and
// span name: out[op][name].
func SelfTimes(spans []Span) map[int]map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Name] += selfTime(s, children[s.ID])
	}
	return out
}

// selfTime is s's duration minus the union of the kids' intervals, each
// clipped to s.
func selfTime(s Span, kids []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return s.Dur() - time.Duration(covered)
}
