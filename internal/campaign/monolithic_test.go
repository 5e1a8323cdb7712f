package campaign

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simgrid"
)

// This file keeps the hand-nested monolithic campaign loop — one emulator
// and network per platform, shared by every workload and model cell below
// it — as a test-only oracle. Production Run is Prepare + RunCellIndex +
// Merge, which builds a fresh emulator and network per cell; the shard
// tests assert the two render byte-identical reports, which is the
// determinism argument of shard.go made executable. Apart from dropping the
// retired fits-reused tally, the loop is the former Engine.Run unchanged.

// MonolithicRun executes a campaign through the monolithic oracle loop.
func (e *Engine) MonolithicRun(ctx context.Context, spec Spec) (*Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	if err := e.resolvePlan(plan); err != nil {
		return nil, err
	}

	e.Progress.AddCellsTotal(int64(len(plan.Platforms) * len(plan.Workloads) * len(plan.Models)))
	res := &Result{Plan: plan}
	for _, pt := range plan.Platforms {
		truth, err := e.Source.Environment(pt.Env)
		if err != nil {
			return nil, err
		}
		em, err := cluster.NewEmulator(truth, plan.Spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("campaign: platform %s: %w", pt.Env, err)
		}
		net, err := simgrid.NewNet(truth.Cluster)
		if err != nil {
			return nil, fmt.Errorf("campaign: platform %s: %w", pt.Env, err)
		}
		for _, wp := range plan.Workloads {
			suite, err := wp.Instances()
			if err != nil {
				return nil, err
			}
			if len(suite) == 0 {
				return nil, fmt.Errorf("campaign: workload %s selects no suite instances", wp.Key())
			}
			for _, kind := range plan.Models {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				model, _, err := e.Source.GetModel(pt.Env, kind, plan.Spec.Seed)
				if err != nil {
					return nil, fmt.Errorf("campaign: fit %s/%s: %w", pt.Env, kind, err)
				}
				cell, err := e.runCell(ctx, plan, pt, wp, kind, truth, em, net, suite, model)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, cell)
				cellsCompleted.Inc()
				e.Progress.AddCellsDone(1)
			}
		}
	}
	return res, nil
}
