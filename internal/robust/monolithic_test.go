package robust

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/simgrid"
)

// This file keeps the former two-stage robustness loop as a test-only
// oracle: the whole base campaign first (one campaign.Engine with Raw and
// schedules retained), then a second hand-nested walk over its plan that
// stabilises every cell with one network per platform. Production Run is
// Prepare + RunCellIndex + Merge, which scores and stabilises each cell in
// turn; the shard tests assert the two render byte-identical reports. The
// loop is the former Engine.Run unchanged.

// MonolithicRun executes a robustness study through the monolithic oracle
// loop.
func (e *Engine) MonolithicRun(ctx context.Context, spec Spec) (*Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	if e.Source == nil {
		return nil, fmt.Errorf("robust: engine has no model source")
	}
	trials := plan.Spec.Robustness.Trials
	ceng := campaign.Engine{Source: e.Source, Workers: e.Workers, KeepRaw: trials > 0, KeepSchedules: trials > 0, Progress: e.Progress}
	base, err := ceng.Run(ctx, plan.Spec.Spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan, Base: base}
	if trials == 0 {
		return res, nil
	}
	// The Monte Carlo stage revisits every base cell once more.
	e.Progress.AddCellsTotal(int64(len(base.Cells)))

	// Walk the campaign's (possibly canonicalised) plan in the same nested
	// order the campaign engine emitted its cells, so base.Cells[ci] is
	// always the cell being stabilised.
	cp := base.Plan
	ci := 0
	for _, pt := range cp.Platforms {
		truth, err := e.Source.Environment(pt.Env)
		if err != nil {
			return nil, err
		}
		platNet, err := simgrid.NewNet(truth.Cluster)
		if err != nil {
			return nil, fmt.Errorf("robust: platform %s: %w", pt.Env, err)
		}
		for _, wp := range cp.Workloads {
			suite, err := wp.Instances()
			if err != nil {
				return nil, err
			}
			for _, kind := range cp.Models {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// The base campaign already resolved this fit; the lookup is
				// a cache hit returning the identical model value.
				model, _, err := e.Source.GetModel(pt.Env, kind, cp.Spec.Seed)
				if err != nil {
					return nil, fmt.Errorf("robust: fit %s/%s: %w", pt.Env, kind, err)
				}
				cell, err := e.stabilizeCell(ctx, plan, cp, pt, wp, kind, truth, platNet, suite, model, &base.Cells[ci], e.Progress)
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, cell)
				robustCellsCompleted.Inc()
				e.Progress.AddCellsDone(1)
				ci++
			}
		}
	}
	return res, nil
}
