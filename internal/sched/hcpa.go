package sched

import "repro/internal/dag"

// HCPA is the Heterogeneous-CPA extension of N'takpé, Suter and Casanova
// (§II-A, [12]). On the homogeneous cluster of the case study its essential
// difference from CPA is the remedy against over-allocation: a task may only
// receive an additional processor while its parallel efficiency
//
//	e(τ, p) = t(τ, 1) / (p · t(τ, p))
//
// stays at or above MinEfficiency. This keeps allocations in the regime
// where extra processors still pay for themselves, which shrinks the large
// allocations plain CPA produces on wide DAGs (and with them, in the real
// environment, the per-processor startup and redistribution overheads the
// analytic model does not see).
type HCPA struct {
	// MinEfficiency is the efficiency floor; 0 means DefaultMinEfficiency.
	MinEfficiency float64
}

// DefaultMinEfficiency is the 50% efficiency floor used when HCPA is
// constructed with its zero value.
const DefaultMinEfficiency = 0.5

// Name implements Algorithm.
func (HCPA) Name() string { return "HCPA" }

// Allocate implements Algorithm.
func (h HCPA) Allocate(g *dag.Graph, clusterSize int, cost dag.CostFunc) []int {
	return allocate(h, g, clusterSize, cost)
}
