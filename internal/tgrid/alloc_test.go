package tgrid

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/testutil"
)

// TestReplayAllocFree pins the tentpole's simulation claim: once a replayer
// is bound and has replayed once (engine created, caches filled), every
// further replay of a perturbed timing allocates nothing.
func TestReplayAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 20, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 78})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	pm := &perfmodel.Perturbed{Base: base, P: perfmodel.Perturbation{
		TaskFactor: 1.1, StartupFactor: 1.3, RedistFactor: 0.9, TaskShape: 0.2, Salt: 9,
	}}
	// Both interface values are built outside the measured loop, like the
	// robustness engine's trial setups do, so the loop measures the replay
	// itself rather than interface boxing.
	sim := TimingScaler(ScaledTiming{Model: pm})
	baseTiming := Timing(ModelTiming{Model: base})

	rep := NewReplayer()
	if err := rep.Bind(net, s, baseTiming); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Replay(net, sim); err != nil { // warm engine + caches
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := rep.Replay(net, sim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm replay allocates %.1f times per run, want 0", allocs)
	}
}

// TestRebindReplayAllocFree pins the reschedule path's steady state: with
// the schedule and graph unchanged, re-binding a warm replayer and replaying
// allocates nothing — the robustness engine re-binds once per trial.
func TestRebindReplayAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 16, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 79})
	s, err := sched.Build(sched.MCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	pm := &perfmodel.Perturbed{Base: base, P: perfmodel.Perturbation{
		TaskFactor: 0.95, StartupFactor: 1, RedistFactor: 1.2, Salt: 10,
	}}
	sim := TimingScaler(ScaledTiming{Model: pm})
	baseTiming := Timing(ModelTiming{Model: base})

	rep := NewReplayer()
	run := func() {
		if err := rep.Bind(net, s, baseTiming); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Replay(net, sim); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("warm bind+replay allocates %.1f times per run, want 0", allocs)
	}
}

// memoTiming serves a model's parallel-task descriptions from a memo, so a
// run through it allocates nothing on the timing's side.
type memoTiming struct {
	ModelTiming
	memo map[[3]int]ptaskDesc
}

func (m memoTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	key := [3]int{int(task.Kernel), task.N, len(hosts)}
	d, ok := m.memo[key]
	if !ok {
		d.fixed, d.comp, d.bytes = m.ModelTiming.TaskWork(task, hosts)
		m.memo[key] = d
	}
	return d.fixed, d.comp, d.bytes
}

// TestRunAllocatesOnlyResult pins Run's steady state on both task paths
// (parallel tasks placed on the net, fixed durations): a warm Run allocates
// no more than building the Result it returns does.
func TestRunAllocatesOnlyResult(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 20, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 80})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		timing Timing
	}{
		{"ptask", memoTiming{ModelTiming{Model: base}, map[[3]int]ptaskDesc{}}},
		{"fixed", flatTiming{startup: 0.5, kernel: 2, redist: 0.1}},
	} {
		want, err := Run(net, s, tc.timing) // warm pools, memo and storage
		if err != nil {
			t.Fatal(err)
		}
		var sink *Result
		result := testing.AllocsPerRun(50, func() {
			n := len(want.TaskStart)
			r := &Result{
				Makespan:          want.Makespan,
				TaskStart:         make([]float64, n),
				TaskFinish:        make([]float64, n),
				TaskStartupDur:    make([]float64, n),
				RedistStart:       make(map[[2]int]float64, len(want.RedistStart)),
				RedistFinish:      make(map[[2]int]float64, len(want.RedistStart)),
				RedistOverheadDur: make(map[[2]int]float64, len(want.RedistStart)),
			}
			for k, v := range want.RedistStart {
				r.RedistStart[k], r.RedistFinish[k], r.RedistOverheadDur[k] = v, want.RedistFinish[k], want.RedistOverheadDur[k]
			}
			sink = r
		})
		run := testing.AllocsPerRun(50, func() {
			if sink, err = Run(net, s, tc.timing); err != nil {
				t.Fatal(err)
			}
		})
		if run > result {
			t.Errorf("%s: Run allocates %.1f times per run, its Result alone %.1f", tc.name, run, result)
		}
		_ = sink
	}
}
