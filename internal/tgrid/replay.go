package tgrid

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/redist"
	"repro/internal/sched"
	"repro/internal/simgrid"
)

// TimingScaler is a Timing that can additionally report, for a parallel
// task, the multiplicative factor relating its per-rank flop counts to the
// bound base timing's. The replay path uses it to re-arm a recorded parallel
// task by scaling its CPU usage in place instead of rebuilding the whole
// L07 description — the allocation-free equivalent of TaskWork.
type TimingScaler interface {
	Timing
	// TaskScale returns (f, true) when this timing's parallel-task
	// description for the configuration is the base description with all
	// per-rank flop counts multiplied by f (communication unchanged), or
	// (0, false) when no such factor exists and the task must fall back
	// to a fixed TaskWork duration.
	TaskScale(task *dag.Task, p int) (float64, bool)
}

// Unscaled adapts the bound base Timing itself to TimingScaler: replaying
// with Unscaled{base} reproduces Run(net, s, base) exactly.
type Unscaled struct{ Timing }

// TaskScale implements TimingScaler with the identity factor.
func (Unscaled) TaskScale(*dag.Task, int) (float64, bool) { return 1, true }

// ScaledTiming adapts a perturbed performance model to TimingScaler the same
// way ModelTiming adapts a model to Timing. The model's TaskPtaskScale
// (perfmodel.Perturbed implements it) reports the per-configuration flop
// factor relative to its base model, so a Replayer bound with
// ModelTiming{base} replays ScaledTiming{perturbed} without ever
// materialising the perturbed parallel-task descriptions.
type ScaledTiming struct {
	Model interface {
		TaskTime(task *dag.Task, p int) float64
		StartupOverhead(p int) float64
		RedistOverhead(pSrc, pDst int) float64
		TaskPtask(task *dag.Task, p int) (comp []float64, bytes [][]float64)
		TaskPtaskScale(task *dag.Task, p int) (factor float64, ok bool)
	}
}

// TaskStartup implements Timing.
func (m ScaledTiming) TaskStartup(task *dag.Task, p int) float64 {
	return m.Model.StartupOverhead(p)
}

// TaskWork implements Timing (the fixed-duration fallback path).
func (m ScaledTiming) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	p := len(hosts)
	comp, bytes := m.Model.TaskPtask(task, p)
	if comp != nil || bytes != nil {
		return 0, comp, bytes
	}
	return m.Model.TaskTime(task, p), nil, nil
}

// RedistOverhead implements Timing.
func (m ScaledTiming) RedistOverhead(pSrc, pDst int) float64 {
	return m.Model.RedistOverhead(pSrc, pDst)
}

// TaskScale implements TimingScaler.
func (m ScaledTiming) TaskScale(task *dag.Task, p int) (float64, bool) {
	return m.Model.TaskPtaskScale(task, p)
}

// replayTask is the recorded execution of one task: a recycled action plus
// everything needed to re-arm it under a new timing, and the window the last
// play gave it.
type replayTask struct {
	act     simgrid.Action
	p       int
	hosts   []int // window into the replayer's flat host copy
	isPtask bool
	cross   bool      // any cross-host communication (pays route latency)
	cpuRes  []int     // CPU resource index per communicating rank
	cpuBase []float64 // base per-rank flop count, scaled by TaskScale

	start, finish, startup float64
}

// replayEdge is the recorded redistribution of one DAG edge, and the window
// the last play gave it.
type replayEdge struct {
	act        simgrid.Action
	src, dst   int
	pSrc, pDst int
	hasBytes   bool
	cross      bool

	start, finish, overhead float64
}

type ptaskKey struct {
	kernel dag.Kernel
	n, p   int
}

type ptaskDesc struct {
	fixed float64
	comp  []float64
	bytes [][]float64
}

// Replayer replays one schedule through the simulator many times under
// varying timings without allocating in steady state — the fast path of the
// robustness trial loop, and the engine behind Run. Bind records the
// schedule's execution structure (actions, usage shapes, dependency counts)
// against a base Timing; each Replay then re-arms the recorded actions under
// a TimingScaler and a (possibly re-parameterised) net of the same shape,
// and returns the makespan. Replay(net, Unscaled{base}) equals Run(net, s,
// base) bit for bit, and Replay with ScaledTiming{perturbed} equals Run
// under the perturbed model.
//
// A Replayer may be re-Bound to different schedules of the same or different
// graphs; its cache of parallel-task descriptions, keyed by configuration,
// persists across binds, so binding per trial in a reschedule loop is cheap.
// The cache assumes TaskWork depends only on (task.Kernel, task.N,
// len(hosts)), which holds for ModelTiming (performance models describe
// homogeneous platforms); it is invalidated when the base Timing changes.
// Redistributions are recorded from their sparse block-overlap plans, built
// in reused storage per edge. A Replayer is not safe for concurrent use.
type Replayer struct {
	net  *simgrid.Net // layout reference from the last Bind
	g    *dag.Graph
	base Timing

	own *simgrid.Engine // Replay's private engine

	// The play in progress: its engine and net, the timing it asks, and
	// that timing as a TimingScaler when it re-arms recorded parallel tasks.
	eng    *simgrid.Engine
	rnet   *simgrid.Net
	timing Timing
	scaler TimingScaler

	hostsFlat []int
	hosts     [][]int
	estStart  []float64
	order     []int

	tasks       []replayTask
	edges       []replayEdge
	edgeIdx     [][]int
	edgeIdxFlat []int

	waiting0 []int
	waiting  []int
	relFlat  []int // releasedBy, flattened
	relOff   []int // per-task cursor/offset into relFlat
	relEnd   []int
	pairP    []int // host-release prerequisites in discovery order
	preStart []int // per-task range into pairP
	preEnd   []int

	lastOnHost []int
	seenEp     []uint64
	ep         uint64

	plan      []redist.Transfer
	transfers []simgrid.Transfer

	ptasks map[ptaskKey]ptaskDesc
	names  []string

	onTask, onEdge func(*simgrid.Engine, *simgrid.Action)
}

// NewReplayer returns an empty replayer.
func NewReplayer() *Replayer {
	r := &Replayer{ptasks: make(map[ptaskKey]ptaskDesc)}
	r.onTask = func(e *simgrid.Engine, a *simgrid.Action) { r.taskDone(a.Tag) }
	r.onEdge = func(e *simgrid.Engine, a *simgrid.Action) { r.edgeDone(a.Tag) }
	return r
}

// replayerPool recycles the replayers behind Run.
var replayerPool = sync.Pool{New: func() any { return NewReplayer() }}

// release returns a Run replayer to the pool without its references to the
// caller's net and graph.
func (r *Replayer) release() {
	r.net, r.g = nil, nil
	replayerPool.Put(r)
}

// Bind records the schedule's execution structure against the base timing.
// The schedule must already be valid for the net's cluster (Bind does not
// re-validate); its relevant fields are copied, so schedules backed by a
// sched.Scratch may be overwritten after Bind returns.
func (r *Replayer) Bind(net *simgrid.Net, s *sched.Schedule, base Timing) error {
	return r.bind(net, s, base)
}

// bind is Bind. A nil base records no parallel-task descriptions: every
// task then takes its work from the play's own timing at launch, as Run's
// single play does.
func (r *Replayer) bind(net *simgrid.Net, s *sched.Schedule, base Timing) error {
	g := s.Graph
	n := g.Len()
	clusterSize := net.Cluster.Nodes
	if base != nil && base != r.base {
		clear(r.ptasks)
		r.base = base
	}
	r.net = net
	r.g = g

	// Snapshot the schedule fields Replay reads after Bind returns.
	total := 0
	for _, hs := range s.Hosts {
		total += len(hs)
	}
	if cap(r.hostsFlat) < total {
		r.hostsFlat = make([]int, 0, total)
	}
	r.hostsFlat = r.hostsFlat[:0]
	r.hosts = resizeIntSlices(r.hosts, n)
	for i, hs := range s.Hosts {
		off := len(r.hostsFlat)
		r.hostsFlat = append(r.hostsFlat, hs...)
		r.hosts[i] = r.hostsFlat[off:len(r.hostsFlat):len(r.hostsFlat)]
	}
	r.estStart = append(r.estStart[:0], s.EstStart...)

	// Launch order: estimated start time, ties by ID (a total order, so any
	// correct sort reproduces Schedule.Order's stable-sort permutation).
	r.order = resizeInts(r.order, n)
	for i := range r.order {
		r.order[i] = i
	}
	sortByEstStart(r.order, r.estStart)

	// Host-occupancy chains: prerequisite counts and, per task, the distinct
	// earlier occupants of its processors, in first-seen order.
	r.lastOnHost = resizeInts(r.lastOnHost, clusterSize)
	for h := range r.lastOnHost {
		r.lastOnHost[h] = -1
	}
	r.waiting0 = resizeInts(r.waiting0, n)
	r.waiting = resizeInts(r.waiting, n)
	r.seenEp = resizeUint64s(r.seenEp, n)
	r.preStart = resizeInts(r.preStart, n)
	r.preEnd = resizeInts(r.preEnd, n)
	r.pairP = r.pairP[:0]
	for _, t := range g.Tasks {
		r.waiting0[t.ID] = t.InDegree()
	}
	for _, id := range r.order {
		r.ep++
		r.preStart[id] = len(r.pairP)
		for _, h := range r.hosts[id] {
			if prev := r.lastOnHost[h]; prev >= 0 && r.seenEp[prev] != r.ep {
				r.seenEp[prev] = r.ep
				r.waiting0[id]++
				r.pairP = append(r.pairP, prev)
			}
			r.lastOnHost[h] = id
		}
		r.preEnd[id] = len(r.pairP)
	}

	// releasedBy[p] lists the tasks waiting on a host p releases, in
	// ascending waiter ID.
	r.relOff = resizeInts(r.relOff, n)
	r.relEnd = resizeInts(r.relEnd, n)
	clear(r.relOff)
	for _, p := range r.pairP {
		r.relOff[p]++
	}
	off := 0
	for id := 0; id < n; id++ {
		cnt := r.relOff[id]
		r.relOff[id] = off
		r.relEnd[id] = off
		off += cnt
	}
	r.relFlat = resizeInts(r.relFlat, off)
	for w := 0; w < n; w++ {
		for i := r.preStart[w]; i < r.preEnd[w]; i++ {
			p := r.pairP[i]
			r.relFlat[r.relEnd[p]] = w
			r.relEnd[p]++
		}
	}

	// Task records.
	if cap(r.tasks) < n {
		tasks := make([]replayTask, n)
		copy(tasks, r.tasks)
		r.tasks = tasks
	}
	r.tasks = r.tasks[:n]
	for id := 0; id < n; id++ {
		task := g.Task(id)
		rec := &r.tasks[id]
		rec.p = len(r.hosts[id])
		rec.hosts = r.hosts[id]
		rec.act.Name = r.taskName(id)
		rec.act.Tag = id
		rec.act.OnComplete = r.onTask
		rec.act.Work = 0
		rec.act.Delay = 0
		rec.act.ClearUsage()
		rec.isPtask = false
		rec.cross = false
		rec.cpuRes = rec.cpuRes[:0]
		rec.cpuBase = rec.cpuBase[:0]
		if base == nil {
			continue
		}
		d := r.ptaskDesc(task, rec.p, rec.hosts)
		if d.comp == nil && d.bytes == nil {
			continue
		}
		rec.isPtask = true
		net.FillPtask(&rec.act, rec.hosts, d.comp, d.bytes)
		// Resources at or past clusterSize are links: the usage is
		// ascending, so the last entry says whether any is charged.
		used := rec.act.UsedResources()
		rec.cross = len(used) > 0 && used[len(used)-1] >= clusterSize
		for i, h := range rec.hosts {
			if d.comp != nil && d.comp[i] > 0 {
				rec.cpuRes = append(rec.cpuRes, net.CPU(h))
				rec.cpuBase = append(rec.cpuBase, d.comp[i])
			}
		}
	}

	// Edge records, in (source ID, successor order) — the order each
	// source's completion starts them in.
	nEdges := g.EdgeCount()
	if cap(r.edges) < nEdges {
		edges := make([]replayEdge, nEdges)
		copy(edges, r.edges)
		r.edges = edges
	}
	r.edges = r.edges[:nEdges]
	r.edgeIdx = resizeIntSlices(r.edgeIdx, n)
	r.edgeIdxFlat = resizeInts(r.edgeIdxFlat, nEdges)
	ei := 0
	for id := 0; id < n; id++ {
		task := g.Task(id)
		start := ei
		for _, succ := range task.Succs() {
			rec := &r.edges[ei]
			r.edgeIdxFlat[ei] = ei
			rec.src, rec.dst = id, succ
			rec.pSrc, rec.pDst = len(r.hosts[id]), len(r.hosts[succ])
			rec.act.Name = "redist"
			rec.act.Tag = ei
			rec.act.OnComplete = r.onEdge
			rec.hasBytes = task.OutputBytes() > 0
			if rec.hasBytes {
				if err := r.fillRedist(net, rec, task.N); err != nil {
					return fmt.Errorf("tgrid: edge %d->%d: %w", id, succ, err)
				}
				rec.cross = len(rec.act.UsedResources()) > 0
			} else {
				rec.act.Work = 0
				rec.act.Delay = 0
				rec.cross = false
			}
			ei++
		}
		r.edgeIdx[id] = r.edgeIdxFlat[start:ei:ei]
	}
	return nil
}

// fillRedist places an edge's redistribution on the net: the 1-D block
// overlap plan between the source and destination processor sets, listed
// row-major as the dense communication matrix would be walked.
func (r *Replayer) fillRedist(net *simgrid.Net, rec *replayEdge, n int) error {
	sd, err := redist.NewDist(n, rec.pSrc)
	if err != nil {
		return err
	}
	dd, err := redist.NewDist(n, rec.pDst)
	if err != nil {
		return err
	}
	if r.plan, err = redist.AppendPlan(r.plan[:0], sd, dd); err != nil {
		return err
	}
	src, dst := r.hosts[rec.src], r.hosts[rec.dst]
	r.transfers = r.transfers[:0]
	for _, t := range r.plan {
		r.transfers = append(r.transfers, simgrid.Transfer{Src: src[t.Src], Dst: dst[t.Dst], Bytes: float64(t.Bytes)})
	}
	net.FillTransfers(&rec.act, r.transfers)
	return nil
}

// Replay re-runs the bound schedule under the given timing on a net with the
// same resource layout as the bind net (same node count and backplane
// presence; capacities and latencies may differ) and returns the makespan.
func (r *Replayer) Replay(net *simgrid.Net, timing TimingScaler) (float64, error) {
	if r.g == nil {
		return 0, fmt.Errorf("tgrid: replay before bind")
	}
	if net.Cluster.Nodes != r.net.Cluster.Nodes || net.HasBackplane() != r.net.HasBackplane() {
		return 0, fmt.Errorf("tgrid: replay net layout differs from bind net")
	}
	if r.own == nil {
		r.own = net.NewEngine()
	} else {
		net.ResetEngine(r.own)
	}
	return r.play(r.own, net, timing, timing)
}

// play runs the bound schedule once on an empty engine for net, asking
// timing for every startup, work and overhead as the events occur; a
// non-nil scaler re-arms the recorded parallel tasks instead of asking for
// their work.
func (r *Replayer) play(eng *simgrid.Engine, net *simgrid.Net, timing Timing, scaler TimingScaler) (float64, error) {
	for i := range r.tasks {
		r.tasks[i].act.Reset()
	}
	for i := range r.edges {
		r.edges[i].act.Reset()
	}
	copy(r.waiting, r.waiting0)
	r.eng, r.rnet, r.timing, r.scaler = eng, net, timing, scaler
	n := len(r.tasks)
	for id := 0; id < n; id++ {
		if r.waiting[id] == 0 {
			r.launch(id)
		}
	}
	makespan, err := eng.Run()
	r.eng, r.rnet, r.timing, r.scaler = nil, nil, nil, nil
	if err != nil {
		return 0, fmt.Errorf("tgrid: %w", err)
	}
	for id := 0; id < n; id++ {
		if r.waiting[id] != 0 {
			return 0, fmt.Errorf("tgrid: task %d never became ready (deadlocked schedule)", id)
		}
	}
	return makespan, nil
}

// result copies the last play's windows into a fresh Result.
func (r *Replayer) result(makespan float64) *Result {
	n, m := len(r.tasks), len(r.edges)
	windows := make([]float64, 3*n)
	res := &Result{
		Makespan:          makespan,
		TaskStart:         windows[:n:n],
		TaskFinish:        windows[n : 2*n : 2*n],
		TaskStartupDur:    windows[2*n:],
		RedistStart:       make(map[[2]int]float64, m),
		RedistFinish:      make(map[[2]int]float64, m),
		RedistOverheadDur: make(map[[2]int]float64, m),
	}
	for id := range r.tasks {
		rec := &r.tasks[id]
		res.TaskStart[id], res.TaskFinish[id], res.TaskStartupDur[id] = rec.start, rec.finish, rec.startup
	}
	for i := range r.edges {
		rec := &r.edges[i]
		key := [2]int{rec.src, rec.dst}
		res.RedistStart[key], res.RedistFinish[key], res.RedistOverheadDur[key] = rec.start, rec.finish, rec.overhead
	}
	return res
}

func (r *Replayer) launch(id int) {
	rec := &r.tasks[id]
	task := r.g.Task(id)
	startup := r.timing.TaskStartup(task, rec.p)
	if startup < 0 {
		panic(fmt.Sprintf("tgrid: negative startup for task %d", id))
	}
	a := &rec.act
	if !r.rearm(rec, task, startup) {
		fixed, comp, bytes := r.timing.TaskWork(task, rec.hosts)
		switch {
		case comp == nil && bytes == nil:
			a.Work = 0
			a.Delay = startup + fixed
		case r.scaler != nil:
			panic(fmt.Sprintf("tgrid: replay timing returned a parallel task for task %d without a scale factor", id))
		default:
			r.rnet.FillPtask(a, rec.hosts, comp, bytes)
			a.Delay += startup + fixed
		}
	}
	rec.start, rec.startup = r.eng.Now(), startup
	r.eng.Add(a)
}

// rearm re-arms a recorded parallel task by scaling its CPU usage with the
// scaler's factor, and reports whether it could. A CPU amount scaled to 0
// leaves the usage and one scaled back up returns, so the re-armed usage is
// the one FillPtask builds, which leaves zero flop counts out.
func (r *Replayer) rearm(rec *replayTask, task *dag.Task, startup float64) bool {
	if r.scaler == nil || !rec.isPtask {
		return false
	}
	f, ok := r.scaler.TaskScale(task, rec.p)
	if !ok {
		return false
	}
	a := &rec.act
	for k, res := range rec.cpuRes {
		a.SetUsage(res, rec.cpuBase[k]*f)
	}
	a.Work = 1
	lat := 0.0
	if rec.cross {
		lat = 2 * r.rnet.Cluster.LinkLatency
	}
	// FillPtask's Delay is the route latency, to which the unscaled path
	// adds startup + fixed; fixed is 0 on the parallel-task path, so this
	// is bit-identical.
	a.Delay = lat + startup
	return true
}

func (r *Replayer) startEdge(ei int) {
	rec := &r.edges[ei]
	overhead := r.timing.RedistOverhead(rec.pSrc, rec.pDst)
	a := &rec.act
	if rec.hasBytes {
		lat := 0.0
		if rec.cross {
			lat = 2 * r.rnet.Cluster.LinkLatency
		}
		a.Delay = lat + overhead
	} else {
		a.Delay = overhead
	}
	rec.start, rec.overhead = r.eng.Now(), overhead
	r.eng.Add(a)
}

func (r *Replayer) taskDone(id int) {
	r.tasks[id].finish = r.eng.Now()
	for _, ei := range r.edgeIdx[id] {
		r.startEdge(ei)
	}
	for i := r.relOff[id]; i < r.relEnd[id]; i++ {
		r.arrive(r.relFlat[i])
	}
}

func (r *Replayer) edgeDone(ei int) {
	rec := &r.edges[ei]
	rec.finish = r.eng.Now()
	r.arrive(rec.dst)
}

func (r *Replayer) arrive(id int) {
	r.waiting[id]--
	if r.waiting[id] < 0 {
		panic(fmt.Sprintf("tgrid: task %d over-released", id))
	}
	if r.waiting[id] == 0 {
		r.launch(id)
	}
}

// ptaskDesc returns the base timing's TaskWork outputs for a configuration,
// memoised by (kernel, n, p).
func (r *Replayer) ptaskDesc(task *dag.Task, p int, hosts []int) ptaskDesc {
	key := ptaskKey{kernel: task.Kernel, n: task.N, p: p}
	if d, ok := r.ptasks[key]; ok {
		return d
	}
	fixed, comp, bytes := r.base.TaskWork(task, hosts)
	d := ptaskDesc{fixed: fixed, comp: comp, bytes: bytes}
	r.ptasks[key] = d
	return d
}

func (r *Replayer) taskName(id int) string {
	for len(r.names) <= id {
		r.names = append(r.names, "task-"+strconv.Itoa(len(r.names)))
	}
	return r.names[id]
}

// sortByEstStart sorts ids by estimated start time, ties by ID. The key is a
// total order, so this reproduces Schedule.Order's stable-sort permutation;
// an insertion sort (schedules are tens of tasks) keeps the bind path
// allocation-free where sort.SliceStable would not.
func sortByEstStart(ids []int, est []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if est[a] < est[b] || (est[a] == est[b] && a < b) {
				break
			}
			ids[j-1], ids[j] = b, a
		}
	}
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeUint64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeIntSlices(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}
