package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// The layer ladder: with --trace 1, after the workload's own traced section,
// every run measures each layer's public entry points on the inputs the
// workloads use — the paper suite's DAGs under the benchmark seed, the
// cluster-shard robustness study, the service's request mix — so each
// per-layer metric is reported by every traced run. Sections a workload
// already measured on its own traced run are not repeated. README.md maps
// each metric to the end-to-end metric it should move.

// ladderPass is how long each microbenchmark loops; its per-op figure is
// the median over passes of at least this length in total.
const ladderPass = 400 * time.Millisecond

// measure runs pass (which returns how many operations it did) repeatedly
// for at least ladderPass and three passes, and returns the median per-pass
// µs per operation and the heap allocations per operation over all passes.
func measure(pass func() (int, error)) (usPerOp, allocsPerOp float64, err error) {
	var perOp []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := 0
	for start := time.Now(); time.Since(start) < ladderPass || len(perOp) < 3; {
		t := time.Now()
		n, err := pass()
		if err != nil {
			return 0, 0, err
		}
		perOp = append(perOp, float64(time.Since(t).Microseconds())/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&after)
	return Median(perOp), float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

func ladder(e *Env) error {
	cfg := paperConfig(e.Seed)
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	if err := lowerLayers(e, lab); err != nil {
		return err
	}
	if _, ok := e.metrics["experiments.study_ms.table1"]; !ok {
		if _, _, err := regenerate(e, cfg, "ladder-regen", 0); err != nil {
			return err
		}
		studyTimes(e)
	}
	if _, ok := e.metrics["robust.cell_p50_ms"]; !ok {
		spec := clusterShardSpec(e.Seed)
		reg, eng, _, err := robustSetup(spec)
		if err != nil {
			return err
		}
		ref, _, err := runStudy(eng, spec)
		if err != nil {
			return err
		}
		if _, _, err := robustLayer(e, reg, eng, spec, ref, 0); err != nil {
			return err
		}
	}
	if _, ok := e.metrics["service.job_run_ms"]; !ok {
		if err := serviceLadder(e); err != nil {
			return err
		}
	}
	if err := storeOps(e); err != nil {
		return err
	}
	return registryFit(e)
}

// studyTimes sets experiments.study_ms.<study> to the median duration of
// the traced study spans.
func studyTimes(e *Env) {
	byStudy := map[string][]float64{}
	for _, s := range e.Tracer.Spans() {
		if name, ok := strings.CutPrefix(s.Name, "experiments.study."); ok {
			byStudy[name] = append(byStudy[name], float64(s.End-s.Start)/1e6)
		}
	}
	for _, name := range experiments.StudyNames() {
		e.Set("experiments.study_ms."+name, Median(byStudy[name]), "ms")
	}
}

// lowerLayers measures simgrid, tgrid, sched and cluster on the schedules
// the paper suite's studies build: every suite DAG under CPA, HCPA and MCPA
// with the analytic model.
func lowerLayers(e *Env, lab *experiments.Lab) error {
	c := lab.Cluster()
	model := lab.Analytic
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	algos := []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}}
	timing := tgrid.ModelTiming{Model: model}

	var schedules []*sched.Schedule
	for _, inst := range lab.Suite {
		for _, a := range algos {
			s, err := sched.Build(a, inst.Graph, c.Nodes, cost, comm)
			if err != nil {
				return err
			}
			schedules = append(schedules, s)
		}
	}

	us, allocs, err := measure(func() (int, error) {
		for _, inst := range lab.Suite {
			for _, a := range algos {
				if _, err := sched.Build(a, inst.Graph, c.Nodes, cost, comm); err != nil {
					return 0, err
				}
			}
		}
		return len(lab.Suite) * len(algos), nil
	})
	if err != nil {
		return err
	}
	e.Set("sched.build_us", us, "us")
	e.Set("sched.build_allocs", allocs, "count")

	sc := sched.NewScratch()
	us, _, err = measure(func() (int, error) {
		for _, inst := range lab.Suite {
			for _, a := range algos {
				sc.Bind(inst.Graph, c.Nodes, cost)
				if _, err := sc.Build(a, comm); err != nil {
					return 0, err
				}
			}
		}
		return len(lab.Suite) * len(algos), nil
	})
	if err != nil {
		return err
	}
	e.Set("sched.scratch_build_us", us, "us")

	us, allocs, err = measure(func() (int, error) {
		for _, s := range schedules {
			if _, err := tgrid.Run(lab.Net, s, timing); err != nil {
				return 0, err
			}
		}
		return len(schedules), nil
	})
	if err != nil {
		return err
	}
	e.Set("tgrid.run_us", us, "us")
	e.Set("tgrid.run_allocs", allocs, "count")

	r := tgrid.NewReplayer()
	us, _, err = measure(func() (int, error) {
		for _, s := range schedules {
			if err := r.Bind(lab.Net, s, timing); err != nil {
				return 0, err
			}
		}
		return len(schedules), nil
	})
	if err != nil {
		return err
	}
	e.Set("tgrid.bind_us", us, "us")

	// Replay is timed on its own: each schedule is bound once, then
	// replayed several times, as the robustness trials do.
	const replays = 8
	var replayUs []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range schedules {
		if err := r.Bind(lab.Net, s, timing); err != nil {
			return err
		}
		t := time.Now()
		for i := 0; i < replays; i++ {
			if _, err := r.Replay(lab.Net, tgrid.Unscaled{Timing: timing}); err != nil {
				return err
			}
		}
		replayUs = append(replayUs, float64(time.Since(t).Microseconds())/replays)
	}
	runtime.ReadMemStats(&after)
	sum := 0.0
	for _, v := range replayUs {
		sum += v
	}
	e.Set("tgrid.replay_us", sum/float64(len(replayUs)), "us")
	// The allocation count includes the Binds; a steady-state replay
	// allocates nothing, so any growth shows here.
	e.Set("tgrid.replay_allocs", float64(after.Mallocs-before.Mallocs)/float64(len(schedules)*replays), "count")

	us, _, err = measure(func() (int, error) {
		for _, s := range schedules {
			if _, err := lab.Em.Execute(s); err != nil {
				return 0, err
			}
		}
		return len(schedules), nil
	})
	if err != nil {
		return err
	}
	e.Set("cluster.execute_us", us, "us")

	return simgridLayer(e, lab.Net, schedules, timing)
}

// simgridLayer measures the solver on the contended 64-transfer star the
// repository's MaxMinSolver benchmark uses (sizes drawn from the seed), and
// parallel-task construction on the suite's task shapes.
func simgridLayer(e *Env, suiteNet *simgrid.Net, schedules []*sched.Schedule, timing tgrid.ModelTiming) error {
	net, err := simgrid.NewNet(platform.Bayreuth())
	if err != nil {
		return err
	}
	actions := make([]*simgrid.Action, 0, 64)
	for f := 0; f < 64; f++ {
		src, dst := f%32, (f*7+5)%32
		if src == dst {
			dst = (dst + 1) % 32
		}
		size := 1e6 * float64(1+(int64(f)*31+e.Seed)%64)
		bytes := [][]float64{{0, size}, {0, 0}}
		actions = append(actions, net.Ptask(fmt.Sprintf("f%d", f), []int{src, dst}, nil, bytes))
	}
	eng := net.NewEngine()
	us, _, err := measure(func() (int, error) {
		const runs = 20
		for i := 0; i < runs; i++ {
			eng.Reset(nil)
			for _, a := range actions {
				a.Reset()
				eng.Add(a)
			}
			if _, err := eng.Run(); err != nil {
				return 0, err
			}
		}
		return runs, nil
	})
	if err != nil {
		return err
	}
	e.Set("simgrid.solve_us", us, "us")

	type shape struct {
		hosts []int
		comp  []float64
		bytes [][]float64
	}
	var shapes []shape
	for _, s := range schedules {
		for id, t := range s.Graph.Tasks {
			_, comp, b := timing.TaskWork(t, s.Hosts[id])
			if comp != nil || b != nil {
				shapes = append(shapes, shape{s.Hosts[id], comp, b})
			}
		}
	}
	if len(shapes) == 0 {
		return fmt.Errorf("simgrid ladder: the analytic model produced no parallel tasks")
	}
	acts := make([]*simgrid.Action, len(shapes))
	for i := range acts {
		acts[i] = &simgrid.Action{Name: "t"}
	}
	eng = suiteNet.NewEngine()
	us, _, err = measure(func() (int, error) {
		eng.Reset(nil)
		for i, sh := range shapes {
			acts[i].Reset()
			suiteNet.FillPtask(acts[i], sh.hosts, sh.comp, sh.bytes)
			eng.Add(acts[i])
		}
		return len(shapes), nil
	})
	if err != nil {
		return err
	}
	e.Set("simgrid.ptask_add_us", us, "us")
	return nil
}

// registryFit times cold registry fits: the cluster-shard study's models,
// which is what set-up pays on robust-trials (and, for one platform, on
// service-mixed), and the base environment's measured models (the profiling
// and sparse campaigns), which the lazy fits put inside every paper-suite
// regeneration.
func registryFit(e *Env) error {
	spec := clusterShardSpec(e.Seed)
	var study, empirical []float64
	for i := 0; i < 3; i++ {
		_, _, d, err := robustSetup(spec)
		if err != nil {
			return err
		}
		study = append(study, d.Seconds()*1000)
		reg := newRegistry()
		t := time.Now()
		if _, _, err := reg.GetModel("bayreuth", "empirical", e.Seed); err != nil {
			return err
		}
		empirical = append(empirical, time.Since(t).Seconds()*1000)
	}
	e.Set("service.registry_fit_ms", Median(study), "ms")
	e.Set("service.empirical_fit_ms", Median(empirical), "ms")
	return nil
}
