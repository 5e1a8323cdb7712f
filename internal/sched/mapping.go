package sched

import "repro/internal/dag"

// MapSchedule is the mapping phase shared by the CPA family: list scheduling
// in decreasing bottom-level order. Ready tasks (all predecessors mapped)
// are mapped one at a time; the chosen task receives the alloc[t] processors
// that become available earliest, and starts once both its processors are
// free and its input data has arrived (predecessor finish plus
// redistribution estimate from the comm model, when provided).
func MapSchedule(g *dag.Graph, alloc []int, clusterSize int, cost dag.CostFunc, comm dag.CommFunc) *Schedule {
	sc := acquireScratch(g, clusterSize, cost)
	defer releaseScratch(sc)
	return sc.mapInto(alloc, comm).Clone()
}
