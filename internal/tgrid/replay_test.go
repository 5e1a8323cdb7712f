package tgrid

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// TestReplayMatchesRun is the differential guard for the replay path: over a
// spread of DAGs, algorithms and perturbation draws — including platform
// (bandwidth/latency) noise, which re-parameterises the net — Replayer must
// reproduce the reference event loop's makespan (runOracle) bit for bit.
func TestReplayMatchesRun(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	baseNet, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}

	draws := []perfmodel.Perturbation{
		perfmodel.IdentityPerturbation(),
		{TaskFactor: 1.13, StartupFactor: 1, RedistFactor: 1, Salt: 1},
		{TaskFactor: 0.9, StartupFactor: 1.4, RedistFactor: 1.2, TaskShape: 0.25, Salt: 2},
		{TaskFactor: 1, StartupFactor: 1, RedistFactor: 1, TaskOffset: 0.02, Salt: 3}, // fixed fallback
		{TaskFactor: 1.05, StartupFactor: 1, RedistFactor: 1, RedistShape: 0.4, StartupOffset: 0.01, Salt: 4},
	}
	bwLat := [][2]float64{{1, 1}, {0.7, 1.6}, {1.4, 0.5}}

	rep := NewReplayer()
	for seed := int64(0); seed < 4; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 8 + int(seed)*7, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 20 + seed,
		})
		for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.MCPA{}, sched.Sequential{}} {
			s, err := sched.Build(algo, g, c.Nodes, cost, comm)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Bind(baseNet, s, ModelTiming{Model: base}); err != nil {
				t.Fatal(err)
			}
			for di, draw := range draws {
				for _, bl := range bwLat {
					pc := c
					pc.LinkBandwidth *= bl[0]
					pc.BackplaneBandwidth *= bl[0]
					pc.LinkLatency *= bl[1]
					net, err := simgrid.NewNet(pc)
					if err != nil {
						t.Fatal(err)
					}
					pm := &perfmodel.Perturbed{Base: base, P: draw}
					want, err := runOracle(net, s, ModelTiming{Model: pm})
					if err != nil {
						t.Fatal(err)
					}
					got, err := rep.Replay(net, ScaledTiming{Model: pm})
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Makespan {
						t.Fatalf("dag %d %s draw %d bw %g lat %g: replay %v != run %v (diff %g)",
							seed, algo.Name(), di, bl[0], bl[1], got, want.Makespan,
							math.Abs(got-want.Makespan))
					}
				}
			}
		}
	}
}

// TestReplayUnscaledMatchesRun checks the Unscaled adapter: replaying the
// bound base timing itself reproduces the reference event loop with that
// timing.
func TestReplayUnscaledMatchesRun(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 12, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 9})
	s, err := sched.Build(sched.HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOracle(net, s, ModelTiming{Model: base})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer()
	if err := rep.Bind(net, s, ModelTiming{Model: base}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated replays must agree with themselves
		got, err := rep.Replay(net, Unscaled{ModelTiming{Model: base}})
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Makespan {
			t.Fatalf("replay %d: %v != %v", i, got, want.Makespan)
		}
	}
}

// TestReplayRebind checks a replayer re-bound across schedules and graphs
// does not leak structure from earlier binds.
func TestReplayRebind(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g1 := dag.MustGenerate(dag.GenParams{Tasks: 18, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 30})
	g2 := dag.MustGenerate(dag.GenParams{Tasks: 7, InputMatrices: 2, AddRatio: 1, N: 2000, Seed: 31})
	pm := &perfmodel.Perturbed{Base: base, P: perfmodel.Perturbation{
		TaskFactor: 1.1, StartupFactor: 1, RedistFactor: 1, Salt: 5,
	}}
	rep := NewReplayer()
	for round := 0; round < 2; round++ {
		for _, g := range []*dag.Graph{g1, g2} {
			for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.DataParallel{}} {
				s, err := sched.Build(algo, g, c.Nodes, cost, comm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runOracle(net, s, ModelTiming{Model: pm})
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Bind(net, s, ModelTiming{Model: base}); err != nil {
					t.Fatal(err)
				}
				got, err := rep.Replay(net, ScaledTiming{Model: pm})
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Makespan {
					t.Fatalf("round %d %s %s: %v != %v", round, g.Name, algo.Name(), got, want.Makespan)
				}
			}
		}
	}
}

// TestReplayZeroTaskFactorMatchesRun covers the zero-drop path of rearm: a
// task factor of 0 scales every CPU amount to 0, which must leave the usage
// just as FillPtask leaves a zero flop count out, and a later nonzero
// factor must bring the amounts back. Each replay equals Run under the same
// perturbed model, and each re-armed task uses the resources FillPtask
// gives it.
func TestReplayZeroTaskFactorMatchesRun(t *testing.T) {
	c := platform.Bayreuth()
	base := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(base)
	comm := perfmodel.CommFunc(base, c)
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustGenerate(dag.GenParams{Tasks: 15, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 12})
	rep := NewReplayer()
	for _, algo := range []sched.Algorithm{sched.HCPA{}, sched.MCPA{}} {
		s, err := sched.Build(algo, g, c.Nodes, cost, comm)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Bind(net, s, ModelTiming{Model: base}); err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{0, 1.2, 0, 1} {
			pm, err := perfmodel.NewPerturbed(base, perfmodel.Perturbation{TaskFactor: f, StartupFactor: 1, RedistFactor: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(net, s, ModelTiming{Model: pm})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.Replay(net, ScaledTiming{Model: pm})
			if err != nil {
				t.Fatal(err)
			}
			if got != want.Makespan {
				t.Fatalf("%s task factor %g: replay %v != run %v", algo.Name(), f, got, want.Makespan)
			}
			// The re-armed usage is the one FillPtask builds under the
			// perturbed model.
			for id := range rep.tasks {
				rec := &rep.tasks[id]
				if !rec.isPtask {
					continue
				}
				_, comp, bytes := ModelTiming{Model: pm}.TaskWork(g.Task(id), rec.hosts)
				fresh := net.Ptask("fresh", rec.hosts, comp, bytes)
				if gotRes, wantRes := rec.act.UsedResources(), fresh.UsedResources(); !slices.Equal(gotRes, wantRes) {
					t.Fatalf("%s task factor %g: task %d uses %v, FillPtask %v", algo.Name(), f, id, gotRes, wantRes)
				}
			}
		}
	}
}
