package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
)

// sameSchedule asserts exact (bitwise float) equality between two schedules.
func sameSchedule(t *testing.T, ctx string, got, want *Schedule) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q != %q", ctx, got.Algorithm, want.Algorithm)
	}
	n := want.Graph.Len()
	if len(got.Alloc) != n || len(got.Hosts) != n || len(got.EstStart) != n || len(got.EstFinish) != n {
		t.Fatalf("%s: field lengths differ", ctx)
	}
	for i := 0; i < n; i++ {
		if got.Alloc[i] != want.Alloc[i] {
			t.Fatalf("%s: task %d alloc %d != %d", ctx, i, got.Alloc[i], want.Alloc[i])
		}
		if len(got.Hosts[i]) != len(want.Hosts[i]) {
			t.Fatalf("%s: task %d host count differs", ctx, i)
		}
		for j := range got.Hosts[i] {
			if got.Hosts[i][j] != want.Hosts[i][j] {
				t.Fatalf("%s: task %d hosts %v != %v", ctx, i, got.Hosts[i], want.Hosts[i])
			}
		}
		if got.EstStart[i] != want.EstStart[i] || got.EstFinish[i] != want.EstFinish[i] {
			t.Fatalf("%s: task %d window [%g,%g] != [%g,%g]", ctx, i,
				got.EstStart[i], got.EstFinish[i], want.EstStart[i], want.EstFinish[i])
		}
	}
}

// TestScratchBuildMatchesBuild is the differential guard for the scratch
// scheduling path: across a spread of random DAGs, cluster sizes and cost
// models, Scratch.Build and the pooled Build, Allocate and MapSchedule built
// on it must reproduce the reference scheduler (oracle_test.go) bit for bit
// — same allocations, same host sets, same estimated timeline.
func TestScratchBuildMatchesBuild(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	// A perturbed model exercises the cost memo with non-trivial floats.
	pm := &perfmodel.Perturbed{Base: model, P: perfmodel.Perturbation{
		TaskFactor: 1.07, StartupFactor: 1.2, TaskShape: 0.3, Salt: 42,
	}}
	pcost := perfmodel.CostFunc(pm)
	pcomm := perfmodel.CommFunc(pm, c)

	algos := []Algorithm{CPA{}, HCPA{}, HCPA{MinEfficiency: 0.25}, MCPA{}, Sequential{}, DataParallel{}, Fixed{P: 3}}
	sc := NewScratch()
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 6; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks:         6 + int(seed)*5,
			InputMatrices: 2 + int(seed)%7,
			AddRatio:      float64(seed) / 6,
			N:             2000,
			Seed:          seed,
		})
		for _, size := range []int{1 + rng.Intn(4), 16, c.Nodes} {
			for _, algo := range algos {
				for _, m := range []struct {
					name string
					cost dag.CostFunc
					comm dag.CommFunc
				}{{"analytic", cost, comm}, {"perturbed", pcost, pcomm}} {
					want, errW := buildOracle(algo, g, size, m.cost, m.comm)
					sc.Bind(g, size, m.cost)
					got, errG := sc.Build(algo, m.comm)
					pooled, errP := Build(algo, g, size, m.cost, m.comm)
					if (errW == nil) != (errG == nil) || (errW == nil) != (errP == nil) {
						t.Fatalf("dag %d size %d %s %s: error mismatch: %v vs %v vs %v",
							seed, size, algo.Name(), m.name, errW, errG, errP)
					}
					if errW != nil {
						continue
					}
					ctx := g.Name + "/" + algo.Name() + "/" + m.name
					sameSchedule(t, ctx, got, want)
					sameSchedule(t, ctx+"/pooled", pooled, want)

					alloc := algo.Allocate(g, size, m.cost)
					wantAlloc := allocateOracle(algo, g, size, m.cost)
					if !equalInts(alloc, wantAlloc) {
						t.Fatalf("%s: Allocate %v != reference %v", ctx, alloc, wantAlloc)
					}
					mapped := MapSchedule(g, wantAlloc, size, m.cost, m.comm)
					mapped.Algorithm = algo.Name()
					sameSchedule(t, ctx+"/map", mapped, want)
				}
			}
		}
	}
}

// TestScratchBuildMHEFTMatchesMHEFT does the same for the one-phase M-HEFT
// scheduler: Scratch.BuildMHEFT and the pooled MHEFT.Build against the
// reference M-HEFT loop.
func TestScratchBuildMHEFTMatchesMHEFT(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)

	sc := NewScratch()
	for seed := int64(0); seed < 4; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 8 + int(seed)*6, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 100 + seed,
		})
		for _, m := range []MHEFT{{}, {AllocCap: 4}} {
			want, errW := mheftOracle(m, g, c.Nodes, cost, comm)
			sc.Bind(g, c.Nodes, cost)
			got, errG := sc.BuildMHEFT(m, comm)
			pooled, errP := m.Build(g, c.Nodes, cost, comm)
			if (errW == nil) != (errG == nil) || (errW == nil) != (errP == nil) {
				t.Fatalf("dag %d cap %d: error mismatch: %v vs %v vs %v", seed, m.AllocCap, errW, errG, errP)
			}
			if errW != nil {
				continue
			}
			sameSchedule(t, g.Name, got, want)
			sameSchedule(t, g.Name+"/pooled", pooled, want)
		}
	}
}

// TestScratchRebind checks that a scratch rebinding across graphs and cost
// functions does not leak memoized costs or cached graph analysis.
func TestScratchRebind(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	double := func(task *dag.Task, p int) float64 { return 2 * cost(task, p) }

	g1 := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 1})
	g2 := dag.MustGenerate(dag.GenParams{Tasks: 14, InputMatrices: 2, AddRatio: 1, N: 2000, Seed: 2})

	sc := NewScratch()
	for round := 0; round < 3; round++ {
		for _, g := range []*dag.Graph{g1, g2} {
			for _, cf := range []dag.CostFunc{cost, double} {
				want, err := buildOracle(HCPA{}, g, c.Nodes, cf, comm)
				if err != nil {
					t.Fatal(err)
				}
				sc.Bind(g, c.Nodes, cf)
				got, err := sc.Build(HCPA{}, comm)
				if err != nil {
					t.Fatal(err)
				}
				sameSchedule(t, g.Name, got, want)
			}
		}
	}

	// Growing a graph in place must invalidate the per-graph caches, also
	// in the pooled scratches behind Build.
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 4})
	for round := 0; round < 2; round++ {
		sc.Bind(g, c.Nodes, cost)
		got, err := sc.Build(MCPA{}, comm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildOracle(MCPA{}, g, c.Nodes, cost, comm)
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "grown", got, want)
		pooled, err := Build(MCPA{}, g, c.Nodes, cost, comm)
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "grown/pooled", pooled, want)
		last := g.Len() - 1
		g.AddTask(dag.KernelMul, 2000)
		g.AddEdge(last, last+1)
	}
}

// TestScheduleClone checks the deep copy detaches from scratch buffers.
func TestScheduleClone(t *testing.T) {
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 10, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 3})

	sc := NewScratch()
	sc.Bind(g, c.Nodes, cost)
	first, err := sc.Build(HCPA{}, comm)
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	ref, err := buildOracle(HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the scratch output with a different algorithm's schedule;
	// the clone must be unaffected.
	if _, err := sc.Build(DataParallel{}, comm); err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "clone", clone, ref)
}
