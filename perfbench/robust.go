package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/service"
)

// clusterShardSpec is the study testdata/golden/cluster-shard.txt pins (the
// spec CI's sharded-execution smoke submits): 3 platforms × 2 sizes × 3
// algorithms, 64 trials at 6 noise levels — 3456 trial runs, rescheduling
// under the default task-time noise.
func clusterShardSpec(seed int64) robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "shard-smoke",
			Seed:       seed,
			Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{6, 8, 16}},
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000, 3000}, SuiteSeeds: []int64{2011}},
			Algorithms: []string{"CPA", "HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{
			Trials: 64,
			Levels: []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5},
		},
	}
}

// newRegistry is a cold registry with the paper's fitting options.
func newRegistry() *service.ModelRegistry {
	cfg := experiments.DefaultConfig()
	return service.NewModelRegistry(cfg.Profile, cfg.Empirical)
}

// robustSetup is the cold registry fit a fresh process pays before its
// first study: a new registry and engine, the plan resolved (which registers
// the scaled platforms with the registry), then the first GetModel of every
// platform × model the study uses. It returns how long the fit took; running
// the study itself is left to the untimed warm-up.
func robustSetup(spec robust.Spec) (*service.ModelRegistry, *robust.Engine, time.Duration, error) {
	start := time.Now()
	reg := newRegistry()
	eng := &robust.Engine{Source: reg, Workers: runtime.NumCPU()}
	p, err := eng.Prepare(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	plan := p.Camp.Plan
	for _, pt := range plan.Platforms {
		for _, kind := range plan.Models {
			if _, _, err := reg.GetModel(pt.Env, kind, plan.Spec.Seed); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	return reg, eng, time.Since(start), nil
}

// coldFits appends the times of n cold registry fits to setups and returns
// the last fit's registry and engine.
func coldFits(spec robust.Spec, n int, setups *[]float64) (*service.ModelRegistry, *robust.Engine, error) {
	var reg *service.ModelRegistry
	var eng *robust.Engine
	for i := 0; i < n; i++ {
		r, en, d, err := robustSetup(spec)
		if err != nil {
			return nil, nil, err
		}
		*setups = append(*setups, d.Seconds())
		reg, eng = r, en
	}
	return reg, eng, nil
}

// A cold registry fit takes about 11 µs, and on a shared host the median of
// 201 of them moved between 8 and 17 µs from one second to the next within
// one process. So a run measures setupsPerGroup fits before its first study
// and as many after each timed one, and reports the median of all of them.
const setupsPerGroup = 51

// robustReference is the report every study must reproduce: the golden
// snapshot on the default seed, otherwise the warm-up study's report.
func robustReference(e *Env, golden string, warm []byte) []byte {
	if e.Seed != defaultSeed {
		return warm
	}
	want, err := os.ReadFile(filepath.Join(e.Root, "testdata", "golden", golden))
	if err != nil {
		e.tally.Fail("read golden %s: %v", golden, err)
		return warm
	}
	return want
}

func runStudy(eng *robust.Engine, spec robust.Spec) ([]byte, time.Duration, error) {
	start := time.Now()
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	var buf bytes.Buffer
	res.Write(&buf)
	return buf.Bytes(), d, nil
}

func runRobustTrials(e *Env) error {
	spec := clusterShardSpec(e.Seed)
	plan, err := spec.Plan()
	if err != nil {
		return err
	}
	trialRuns := plan.TrialRuns()
	var setups []float64
	reg, eng, err := coldFits(spec, setupsPerGroup, &setups)
	if err != nil {
		return err
	}
	// The first study on a registry runs slower than later ones (pools and
	// caches fill); it is checked but not timed.
	warm, cold, err := runStudy(eng, spec)
	if err != nil {
		return err
	}
	ref := robustReference(e, "cluster-shard.txt", warm)
	e.tally.Check(bytes.Equal(warm, ref), "robust-trials: warm-up report differs from cluster-shard.txt")
	fmt.Printf("robust-trials: %d trial runs per study; cold study %.3fs\n", trialRuns, cold.Seconds())

	if e.Tracer != nil {
		return traceRobustTrials(e, reg, eng, spec, ref)
	}
	var studies, rel []float64
	window := time.Duration(e.Seconds * float64(time.Second))
	rss := sampleRSS("self")
	before := referenceMs(runtime.NumCPU())
	for start := time.Now(); time.Since(start) < window; {
		out, d, err := runStudy(eng, spec)
		if err != nil {
			return err
		}
		// These fits build registries of their own; the studies keep the
		// warm one.
		if _, _, err := coldFits(spec, setupsPerGroup, &setups); err != nil {
			return err
		}
		after := referenceMs(runtime.NumCPU())
		e.tally.Check(bytes.Equal(out, ref), "robust-trials: study report differs from its reference")
		studies = append(studies, d.Seconds()*1000)
		rel = append(rel, d.Seconds()*1000/((before+after)/2))
		before = after
	}
	rssMB, err := rss()
	if err != nil {
		return err
	}
	peak, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	med := Median(studies)
	perS := float64(trialRuns) / (med / 1000)
	e.setE2E(setups, studies, rel, rssMB)
	fmt.Printf("peak_rss_mb = %.2f MB (the benchmark process)\n", peak)
	fmt.Printf("trialruns_per_s = %.1f (median study %.3fs of %d)\n", perS, med/1000, len(studies))
	return nil
}

// traceRobustTrials measures the robust layer on the workload's own study
// and attributes the traced time to it.
func traceRobustTrials(e *Env, reg *service.ModelRegistry, eng *robust.Engine, spec robust.Spec, ref []byte) error {
	plain, traced, err := robustLayer(e, reg, eng, spec, ref, time.Duration(e.Seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	e.setOverhead(plain, Median(traced), Sum(traced))
	return nil
}

// robustLayer spends half the window on monolithic studies, untraced, and
// half driving the same study through Prepare → RunCellIndex per cell →
// Merge with a span around each call (at least one of each); the merged
// report must match ref. It then measures what the cell spans cannot split:
// the base campaign's share of a study (its Trials: 0 twin), the campaign
// layer's per-cell time and heap allocations per trial run. It returns the
// untraced median study time and every traced study's time, in ms.
func robustLayer(e *Env, reg *service.ModelRegistry, eng *robust.Engine, spec robust.Spec, ref []byte, window time.Duration) (float64, []float64, error) {
	ctx := context.Background()
	plan, err := spec.Plan()
	if err != nil {
		return 0, nil, err
	}
	var plain []float64
	for start := time.Now(); time.Since(start) < window/2 || len(plain) < 1; {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, d, err := runStudy(eng, spec)
		if err != nil {
			return 0, nil, err
		}
		runtime.ReadMemStats(&after)
		e.Set("robust.allocs_per_trial", float64(after.Mallocs-before.Mallocs)/float64(plan.TrialRuns()), "count")
		e.tally.Check(bytes.Equal(out, ref), "robust: study report differs from its reference")
		plain = append(plain, d.Seconds()*1000)
	}
	var traced []float64
	for i, start := 0, time.Now(); time.Since(start) < window/2 || len(traced) < 1; i++ {
		d, err := robustCellByCell(e, eng, spec, ref, fmt.Sprintf("study-%d", i))
		if err != nil {
			return 0, nil, err
		}
		traced = append(traced, d.Seconds()*1000)
	}

	twin := spec
	twin.Robustness = robust.Axis{}
	_, d, err := runStudy(eng, twin)
	if err != nil {
		return 0, nil, err
	}
	e.Set("robust.base_share", d.Seconds()*1000/Median(plain), "ratio")

	ceng := &campaign.Engine{Source: reg, Workers: runtime.NumCPU()}
	cp, err := ceng.Prepare(spec.Spec)
	if err != nil {
		return 0, nil, err
	}
	var cellMs []float64
	for i := 0; i < cp.NumCells(); i++ {
		t := time.Now()
		if _, err := ceng.RunCellIndex(ctx, cp, i); err != nil {
			return 0, nil, err
		}
		cellMs = append(cellMs, time.Since(t).Seconds()*1000)
	}
	e.Set("campaign.cell_ms", Median(cellMs), "ms")
	return Median(plain), traced, nil
}

// robustCellByCell runs one traced study cell by cell, records the robust
// layer's per-cell metrics and checks the merged report against ref.
func robustCellByCell(e *Env, eng *robust.Engine, spec robust.Spec, ref []byte, run string) (time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	root := e.Tracer.Begin("bench.study", run, 0)
	defer e.Tracer.End(root)
	sp := e.Tracer.Begin("robust.prepare", run, root)
	p, err := eng.Prepare(spec)
	e.Tracer.End(sp)
	if err != nil {
		return 0, err
	}
	cells := make([]robust.CellResult, p.NumCells())
	cellMs := make([]float64, p.NumCells())
	for i := range cells {
		t := time.Now()
		sp := e.Tracer.Begin("robust.cell", run, root)
		cells[i], err = eng.RunCellIndex(ctx, p, i, nil)
		e.Tracer.End(sp)
		if err != nil {
			return 0, err
		}
		cellMs[i] = time.Since(t).Seconds() * 1000
	}
	t := time.Now()
	sp = e.Tracer.Begin("robust.merge", run, root)
	res, err := robust.Merge(p, cells)
	var buf bytes.Buffer
	if err == nil {
		res.Write(&buf)
	}
	e.Tracer.End(sp)
	if err != nil {
		return 0, err
	}
	e.Set("robust.merge_ms", time.Since(t).Seconds()*1000, "ms")
	d := time.Since(start)
	e.tally.Check(bytes.Equal(buf.Bytes(), ref), "robust: cell-by-cell merge differs from the monolithic report")

	s := Summarize(cellMs)
	e.Set("robust.cell_p50_ms", s.P50, "ms")
	e.Set("robust.cell_max_ms", s.Max, "ms")
	e.Set("robust.cell_max_over_mean", s.Max/s.Mean, "ratio")
	return d, nil
}
