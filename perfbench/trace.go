package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans are recorded only by the benchmark, around the public calls it
// makes; the program itself carries no tracing.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`   // "<layer>.<what>", e.g. "robust.cell"
	Run    string `json:"run"`    // run or request id shared by a root and its descendants
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the part of the span name before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run writes them out. A nil *Tracer
// records nothing, so untraced runs pass nil.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts the tracer's clock.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Start: now, End: -1})
	return len(t.spans)
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds an already-timed span, such as one bounded by timestamps a
// server reported, and returns its id.
func (t *Tracer) Record(name, run string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes every closed span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each layer's self time: for every span, its duration
// minus the part of it its children cover. A parent's covered time is the
// union of its children's intervals, clipped to its own, so when every child
// lies within its parent the layers' self times sum exactly to the roots'
// total.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer()] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
