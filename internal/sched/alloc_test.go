package sched

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/testutil"
)

// TestScratchBuildAllocFree pins the tentpole's scheduling claim: once a
// scratch has been warmed on a graph, rebinding it (fresh cost function, new
// memo epoch) and rebuilding every CPA-family algorithm plus M-HEFT
// allocates nothing.
func TestScratchBuildAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 20, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 77})

	algos := []Algorithm{CPA{}, HCPA{}, MCPA{}, Sequential{}, DataParallel{}}
	sc := NewScratch()
	run := func() {
		sc.Bind(g, c.Nodes, cost)
		for _, algo := range algos {
			if _, err := sc.Build(algo, comm); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sc.BuildMHEFT(MHEFT{}, comm); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch's buffers and per-graph caches
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("warm scratch build allocates %.1f times per run, want 0", allocs)
	}
}

// TestBuildAllocatesOnlyClone pins the pooled wrappers: a steady-state
// Build or MHEFT.Build allocates no more than the Clone it returns.
func TestBuildAllocatesOnlyClone(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	c := platform.Bayreuth()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	g := dag.MustGenerate(dag.GenParams{Tasks: 20, InputMatrices: 4, AddRatio: 0.5, N: 2000, Seed: 77})

	ref, err := Build(HCPA{}, g, c.Nodes, cost, comm)
	if err != nil {
		t.Fatal(err)
	}
	var sink *Schedule
	clone := testing.AllocsPerRun(50, func() { sink = ref.Clone() })
	for _, algo := range []Algorithm{CPA{}, HCPA{}, MCPA{}} {
		build := testing.AllocsPerRun(50, func() {
			if sink, err = Build(algo, g, c.Nodes, cost, comm); err != nil {
				t.Fatal(err)
			}
		})
		if build > clone {
			t.Errorf("%s: Build allocates %.1f times per run, Clone alone %.1f", algo.Name(), build, clone)
		}
	}
	build := testing.AllocsPerRun(50, func() {
		if sink, err = (MHEFT{}).Build(g, c.Nodes, cost, comm); err != nil {
			t.Fatal(err)
		}
	})
	if build > clone {
		t.Errorf("MHEFT: Build allocates %.1f times per run, Clone alone %.1f", build, clone)
	}
	_ = sink
}
