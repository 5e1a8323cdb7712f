package sched

import "repro/internal/dag"

// MCPA is the Modified-CPA algorithm of Bansal, Kumar and Singh (§II-A,
// [5], "An Improved Two-Step Algorithm for Task and Data Parallel
// Scheduling"). Its remedy against CPA's over-allocation is precedence-
// level awareness: the w tasks of one precedence level can run
// concurrently, so they must share the N processors. MCPA therefore caps
// every task's allocation at N divided by its level's width (and refuses
// further growth once the level's total allocation reaches N), which stops
// CPA from giving a task more processors than its level's task parallelism
// can ever exploit simultaneously.
type MCPA struct{}

// Name implements Algorithm.
func (MCPA) Name() string { return "MCPA" }

// Allocate implements Algorithm.
func (m MCPA) Allocate(g *dag.Graph, clusterSize int, cost dag.CostFunc) []int {
	return allocate(m, g, clusterSize, cost)
}
