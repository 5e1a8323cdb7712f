package sched

import "repro/internal/dag"

// CPA is the Critical Path and Area-based scheduling algorithm of Radulescu
// and van Gemund (§II-A, [7]). Its allocation phase starts every task on one
// processor and repeatedly gives one more processor to the critical-path
// task that benefits most, until the critical path T_CP no longer exceeds
// the average area T_A = (1/N)·Σ t(τ,n_τ)·n_τ. CPA is known to over-allocate
// on wide DAGs — the flaw HCPA and MCPA address.
type CPA struct{}

// Name implements Algorithm.
func (CPA) Name() string { return "CPA" }

// Allocate implements Algorithm.
func (a CPA) Allocate(g *dag.Graph, clusterSize int, cost dag.CostFunc) []int {
	return allocate(a, g, clusterSize, cost)
}
