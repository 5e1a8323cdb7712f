package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Sum(xs); got != 15 {
		t.Errorf("Sum = %v, want 15", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of no samples is not NaN")
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so Summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{5, 1, 0},          // too few for any percentile: the maximum
		{91, 1, 0},         // p90 sits at rank 81 of 0..90: nine beyond
		{92, 0.9, 10},      // p90 at rank 81.9: ten beyond
		{901, 0.9, 90},     // p99 at rank 891 of 0..900: nine beyond
		{902, 0.99, 10},    // p99 at rank 891.99: ten beyond
		{20000, 0.99, 200}, // the ladder stops at p99
	} {
		s := Summarize(ramp(c.n))
		if s.N != c.n || s.TailQ != c.q || s.Beyond != c.beyond {
			t.Errorf("n=%d: tail p%v with %d beyond, want p%v with %d", c.n, s.TailQ, s.Beyond, c.q, c.beyond)
		}
		if s.P50 != (float64(c.n)+1)/2 {
			t.Errorf("n=%d: median %v", c.n, s.P50)
		}
		if s.Max != float64(c.n) {
			t.Errorf("n=%d: max %v", c.n, s.Max)
		}
	}
}

func TestErrorRatio(t *testing.T) {
	if got := ErrorRatio(0, 10); got != 0 {
		t.Errorf("no failures: %v", got)
	}
	if got := ErrorRatio(3, 12); got != 0.25 {
		t.Errorf("3 of 12: %v", got)
	}
	if got := ErrorRatio(0, 0); got != 1 {
		t.Errorf("nothing attempted must count as failed, got %v", got)
	}
	var tl Tally
	tl.Check(true, "fine")
	tl.Check(false, "wrong byte in %s", "fig1")
	tl.Fail("refused")
	if tl.Attempted != 3 || tl.Failed != 2 || len(tl.first) != 2 || tl.first[0] != "wrong byte in fig1" {
		t.Errorf("tally %+v", tl)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "bench.study", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "robust.prepare", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "robust.cell", Start: 10 * ms, End: 60 * ms},
		// Overlaps its sibling: the union, not the sum, is covered.
		{ID: 4, Parent: 1, Name: "robust.cell", Start: 50 * ms, End: 80 * ms},
		// A grandchild inside a cell moves time from robust to service.
		{ID: 5, Parent: 3, Name: "service.schedule", Start: 20 * ms, End: 30 * ms},
		// Runs past its parent's end: only the clipped part counts.
		{ID: 6, Parent: 4, Name: "service.schedule", Start: 75 * ms, End: 120 * ms},
		// A second root.
		{ID: 7, Name: "loadgen.request", Start: 200 * ms, End: 210 * ms},
		{ID: 8, Parent: 7, Name: "service.schedule", Start: 204 * ms, End: 210 * ms},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"bench":   20 * time.Millisecond, // 100 − union(0–80)
		"robust":  10*time.Millisecond + 40*time.Millisecond + 25*time.Millisecond,
		"service": 10*time.Millisecond + 45*time.Millisecond + 6*time.Millisecond,
		"loadgen": 4 * time.Millisecond,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("%s self %v, want %v", layer, self[layer], d)
		}
	}
}

func TestSelfTimesPartitionRoots(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("bench.regen", "r", 0)
	a := tr.Begin("experiments.newlab", "r", root)
	tr.End(a)
	b := tr.Begin("experiments.study.fig1", "r", root)
	time.Sleep(time.Millisecond)
	tr.End(b)
	tr.End(root)
	open := tr.Begin("never.closed", "r", 0) // dropped: never ended
	_ = open
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d closed spans, want 3", len(spans))
	}
	var sum time.Duration
	for _, d := range SelfTimes(spans) {
		sum += d
	}
	if roots := time.Duration(spans[0].End - spans[0].Start); sum != roots || roots <= 0 {
		t.Errorf("self times sum to %v, roots %v", sum, roots)
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", "r", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.End(1)
}
