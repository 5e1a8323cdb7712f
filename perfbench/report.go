package main

import "fmt"

// The end-to-end metrics every workload reports with --trace 0. Each
// workload has one timed unit of work — a regeneration, a study, a schedule
// request — and names it in its report lines:
//
//	setup_s      median of several set-ups: the time until the workload is
//	             ready to be timed
//	op_p50_rel   median wall-clock of the unit of work, each divided by the
//	             reference loop's wall-clock around it (calib.go)
//	rss_mb       resident memory of the process doing the work: the median
//	             over the window in process, the daemons' peak for the
//	             service
//
// The report lines also carry the raw figures — the unit's median and tail
// in ms (the tail is the higher of p99 and p90 with at least ten samples
// beyond it, else the slowest sample) and the workload's work rate — which
// are not bounded: on a shared 2-core host they follow the host's load far
// more than the ratios do (README.md gives the measured spreads).
func (e *Env) setE2E(setups, opsMs, opsRel []float64, rssMB float64) Summary {
	s := Summarize(opsMs)
	e.Set("setup_s", Median(setups), "s")
	e.Set("op_p50_rel", Median(opsRel), "ratio")
	e.Set("rss_mb", rssMB, "MB")
	tail := "slowest"
	if s.TailQ < 1 {
		tail = fmt.Sprintf("p%g", 100*s.TailQ)
	}
	fmt.Printf("%s: %d timed operations, median %.4g ms, %s %.4g ms (%d samples beyond); setup median of %d\n",
		e.Workload, s.N, s.P50, tail, s.Tail, s.Beyond, len(setups))
	return s
}

// setOverhead records the traced and untraced wall-clock of the workload's
// unit of work and their difference, plus each layer's self time as a share
// of unitsMs: the summed wall-clock of the traced units, as the benchmark
// timed them with its own clock reads rather than from the spans.
func (e *Env) setOverhead(untracedMs, tracedMs, unitsMs float64) {
	e.Set("trace.untraced_ms", untracedMs, "ms")
	e.Set("trace.traced_ms", tracedMs, "ms")
	e.Set("trace.overhead_pct", 100*(tracedMs-untracedMs)/untracedMs, "%")
	self := SelfTimes(e.Tracer.Spans())
	sum := 0.0
	for _, layer := range traceLayers {
		share := float64(self[layer]) / 1e6 / unitsMs
		sum += share
		e.Set("trace.self_share."+layer, share, "ratio")
	}
	// coverage is near 1 when the layers' self times account for the traced
	// units' measured time; a lost span or a layer missing from traceLayers
	// pulls it below 1, spans reaching past the timed calls push it above.
	e.Set("trace.coverage", sum, "ratio")
}

// traceLayers are the span layers the benchmark records: its own work
// between calls (bench), the request generator's queueing (loadgen), and
// the program layers it calls into.
var traceLayers = []string{"bench", "loadgen", "experiments", "robust", "service"}
