package tgrid

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// Run executes the schedule in virtual time on the given network, with all
// durations and overheads supplied by the Timing source.
//
// Execution semantics follow TGrid: a task starts once (a) the output data
// of every predecessor has been redistributed to the task's processor set
// and (b) its processors have been released by the previous tasks the
// schedule placed on them. Each task pays its startup overhead, then runs
// its kernel. Each DAG edge triggers a redistribution as soon as the
// producing task completes: the subnet-manager overhead followed by the
// point-to-point transfers of the 1-D block overlap plan, which contend on
// the network with everything else in flight.
//
// Run is a thin wrapper over a pooled Replayer: it records the schedule's
// structure, then plays it once, asking timing for each task's startup and
// work when the task launches and for each edge's overhead when its
// redistribution starts — in event order, which timings that draw noise per
// call (the emulated cluster's) depend on.
func Run(net *simgrid.Net, s *sched.Schedule, timing Timing) (*Result, error) {
	if err := s.Validate(net.Cluster.Nodes); err != nil {
		return nil, fmt.Errorf("tgrid: invalid schedule: %w", err)
	}
	r := replayerPool.Get().(*Replayer)
	defer r.release()
	if err := r.bind(net, s, nil); err != nil {
		return nil, err
	}
	// Engines are recycled through the net's pool: every study cell, campaign
	// run and service request replays schedules against a warm engine instead
	// of allocating a fresh one (and fresh solver scratch) per execution.
	engine := net.AcquireEngine()
	defer net.ReleaseEngine(engine)
	makespan, err := r.play(engine, net, timing, nil)
	if err != nil {
		return nil, err
	}
	return r.result(makespan), nil
}

// ModelTiming adapts a performance model to the Timing interface, turning
// Run into one of the paper's simulators. TaskModel is any perfmodel.Model;
// the indirection through this struct keeps tgrid free of a perfmodel
// dependency cycle.
type ModelTiming struct {
	Model interface {
		TaskTime(task *dag.Task, p int) float64
		StartupOverhead(p int) float64
		RedistOverhead(pSrc, pDst int) float64
		TaskPtask(task *dag.Task, p int) (comp []float64, bytes [][]float64)
	}
}

// TaskStartup implements Timing.
func (m ModelTiming) TaskStartup(task *dag.Task, p int) float64 {
	return m.Model.StartupOverhead(p)
}

// TaskWork implements Timing: analytic models yield parallel-task
// descriptions, measured models yield fixed durations. Performance models
// describe homogeneous platforms, so only the processor count matters here.
func (m ModelTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	p := len(hosts)
	comp, bytes := m.Model.TaskPtask(task, p)
	if comp != nil || bytes != nil {
		return 0, comp, bytes
	}
	return m.Model.TaskTime(task, p), nil, nil
}

// RedistOverhead implements Timing.
func (m ModelTiming) RedistOverhead(pSrc, pDst int) float64 {
	return m.Model.RedistOverhead(pSrc, pDst)
}
