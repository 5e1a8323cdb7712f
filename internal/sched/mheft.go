package sched

import "repro/internal/dag"

// MHEFT is the Mixed-parallel HEFT baseline (M-HEFT), the algorithm HCPA
// was originally evaluated against in [12]. Unlike the CPA family it is a
// one-phase scheduler: tasks are considered in decreasing bottom-level
// order and each task simultaneously picks its allocation size and its
// processor set so as to minimise its earliest finish time. Without a cap
// M-HEFT is known to over-allocate aggressively (any extra processor that
// shaves a microsecond is taken); AllocCap bounds the per-task allocation
// (0 means the whole cluster).
type MHEFT struct {
	// AllocCap bounds each task's allocation; 0 means no bound.
	AllocCap int
}

// Name identifies the algorithm.
func (m MHEFT) Name() string { return "MHEFT" }

// Build runs the one-phase scheduler and returns a validated schedule.
func (m MHEFT) Build(g *dag.Graph, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) (*Schedule, error) {
	sc := acquireScratch(g, clusterSize, cost)
	defer releaseScratch(sc)
	s, err := sc.BuildMHEFT(m, comm)
	if err != nil {
		return nil, err
	}
	return s.Clone(), nil
}
