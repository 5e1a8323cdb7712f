package simgrid

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/platform"
)

// Engine-pool telemetry: how often simulations draw a warm engine versus
// paying for a fresh one. Registered once per process; the counters are
// plain atomics, so the acquire/release fast path stays allocation-free.
var (
	enginePoolAcquires = obs.Default.Counter("repro_pool_acquires_total",
		"Pool acquisitions, by pool.", obs.L("pool", "engine"))
	enginePoolReleases = obs.Default.Counter("repro_pool_releases_total",
		"Pool releases, by pool.", obs.L("pool", "engine"))
	enginePoolNews = obs.Default.Counter("repro_pool_news_total",
		"Pool misses that built a fresh object, by pool.", obs.L("pool", "engine"))
)

// Net maps a platform.Cluster onto engine resources, implementing the star
// topology of the paper's platform specification: per-node CPU, per-node
// private uplink and downlink, and an optional switch backplane.
//
// A Net also owns a pool of reusable engines for its cluster
// (AcquireEngine/ReleaseEngine): callers that replay many executions — the
// simulators, the emulated cluster, campaign cells — recycle engines and
// their solver scratch instead of allocating one per run. The pool is safe
// for concurrent use; each worker effectively keeps a warm engine.
type Net struct {
	Cluster platform.Cluster
	// resource index layout:
	//   [0, N)    host CPUs
	//   [N, 2N)   uplinks
	//   [2N, 3N)  downlinks
	//   3N        backplane (only if Cluster.BackplaneBandwidth > 0)
	nHosts int
	caps   []float64 // capacity vector, computed once
	pool   sync.Pool // of *Engine
}

// NewNet validates the cluster and returns its resource mapping.
func NewNet(c platform.Cluster) (*Net, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := &Net{Cluster: c, nHosts: c.Nodes}
	size := 3 * n.nHosts
	if c.BackplaneBandwidth > 0 {
		size++
	}
	n.caps = make([]float64, size)
	for h := 0; h < n.nHosts; h++ {
		n.caps[n.CPU(h)] = c.PowerOf(h)
		n.caps[n.Uplink(h)] = c.LinkBandwidth
		n.caps[n.Downlink(h)] = c.LinkBandwidth
	}
	if c.BackplaneBandwidth > 0 {
		n.caps[n.Backplane()] = c.BackplaneBandwidth
	}
	n.pool.New = func() any {
		enginePoolNews.Inc()
		return NewEngine(n.caps)
	}
	return n, nil
}

// Capacities returns a copy of the engine capacity vector for the cluster.
func (n *Net) Capacities() []float64 { return append([]float64(nil), n.caps...) }

// NewEngine builds a fresh engine with the cluster's resources. Callers that
// execute many runs should prefer AcquireEngine/ReleaseEngine, which recycle
// engines (and their warmed-up solver scratch) through the net's pool.
func (n *Net) NewEngine() *Engine { return NewEngine(n.caps) }

// AcquireEngine returns an empty engine for the cluster at time zero,
// recycled from the net's pool when one is available. Every engine in the
// pool is already reset — ReleaseEngine is the only Put path and resets
// eagerly, and pool-created engines are pristine — so acquisition is just
// the pool lookup. Pair every acquire with a ReleaseEngine once the run's
// results have been read off.
func (n *Net) AcquireEngine() *Engine {
	enginePoolAcquires.Inc()
	return n.pool.Get().(*Engine)
}

// ResetEngine resets an engine (not necessarily from this net's pool) to
// this net's capacities at time zero, without the capacity-vector copy
// Capacities would make — the allocation-free way to point a privately owned
// engine at a re-parameterised net of the same shape.
func (n *Net) ResetEngine(e *Engine) { e.Reset(n.caps) }

// ReleaseEngine returns an engine obtained from AcquireEngine to the pool.
// The engine — including any Completed() slice read from it — must not be
// used after release. The engine is reset eagerly so recycled engines do
// not pin finished actions in memory while parked.
func (n *Net) ReleaseEngine(e *Engine) {
	enginePoolReleases.Inc()
	e.Reset(nil)
	n.pool.Put(e)
}

// CPU returns the resource index of host h's processor.
func (n *Net) CPU(h int) int { n.check(h); return h }

// Uplink returns the resource index of host h's private uplink.
func (n *Net) Uplink(h int) int { n.check(h); return n.nHosts + h }

// Downlink returns the resource index of host h's private downlink.
func (n *Net) Downlink(h int) int { n.check(h); return 2*n.nHosts + h }

// Backplane returns the resource index of the switch backplane. Only valid
// when the cluster models one.
func (n *Net) Backplane() int { return 3 * n.nHosts }

// HasBackplane reports whether the backplane resource exists.
func (n *Net) HasBackplane() bool { return n.Cluster.BackplaneBandwidth > 0 }

func (n *Net) check(h int) {
	if h < 0 || h >= n.nHosts {
		panic(fmt.Sprintf("simgrid: host %d out of range [0,%d)", h, n.nHosts))
	}
}

// RouteLatency returns the latency of the route between two hosts: zero
// within a host, twice the private-link latency otherwise (source link +
// destination link; the paper models switch and private links with a single
// 100 µs figure).
func (n *Net) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return 2 * n.Cluster.LinkLatency
}

// Ptask builds an L07 parallel-task action from a computation vector and a
// communication matrix, the exact inputs of SimGrid's Ptask_L07 model:
// comp[i] is the number of flops host hosts[i] executes, bytes[i][j] the
// number of bytes hosts[i] sends to hosts[j]. Either may be nil (a == 0
// redistribution, B == 0 pure computation). The action's latency is the
// maximum route latency over communicating pairs.
func (n *Net) Ptask(name string, hosts []int, comp []float64, bytes [][]float64) *Action {
	a := &Action{Name: name}
	n.FillPtask(a, hosts, comp, bytes)
	return a
}

// FillPtask populates an existing action with the L07 parallel task described
// by comp and bytes (see Ptask), replacing its usage in place so replay
// paths can re-arm recycled actions without allocating. Delay is set to the
// maximum route latency and Work to 1; Name, Tag, Bound and OnComplete are
// left untouched.
func (n *Net) FillPtask(a *Action, hosts []int, comp []float64, bytes [][]float64) {
	name := a.Name
	if comp != nil && len(comp) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: comp length %d != hosts %d", name, len(comp), len(hosts)))
	}
	if bytes != nil && len(bytes) != len(hosts) {
		panic(fmt.Sprintf("simgrid: ptask %q: bytes rows %d != hosts %d", name, len(bytes), len(hosts)))
	}
	a.ClearUsage()
	latency := 0.0
	for i, h := range hosts {
		if comp != nil && comp[i] > 0 {
			a.AddUsage(n.CPU(h), comp[i])
		}
		if bytes == nil {
			continue
		}
		if len(bytes[i]) != len(hosts) {
			panic(fmt.Sprintf("simgrid: ptask %q: bytes row %d has %d cols, want %d",
				name, i, len(bytes[i]), len(hosts)))
		}
		for j, b := range bytes[i] {
			if b <= 0 || i == j {
				continue // intra-host transfers are free, as in SimGrid clusters
			}
			dst := hosts[j]
			if h == dst {
				continue
			}
			if l := n.addTransfer(a, h, dst, b); l > latency {
				latency = l
			}
		}
	}
	a.Delay = latency
	a.Work = 1
}

// Transfer is one host-to-host message of a communication-only parallel
// task: Bytes sent from host Src to host Dst.
type Transfer struct {
	Src, Dst int
	Bytes    float64
}

// FillTransfers populates an existing action with a communication-only L07
// parallel task given as a sparse list of transfers — FillPtask with comp nil
// and a bytes matrix holding only these entries — at a cost proportional to
// the list rather than to the square of the host count. Usage sums are
// accumulated in list order, so a list in the matrix's row-major order
// reproduces FillPtask's floating-point sums bit for bit.
func (n *Net) FillTransfers(a *Action, transfers []Transfer) {
	a.ClearUsage()
	latency := 0.0
	for _, t := range transfers {
		if t.Bytes <= 0 || t.Src == t.Dst {
			continue
		}
		if l := n.addTransfer(a, t.Src, t.Dst, t.Bytes); l > latency {
			latency = l
		}
	}
	a.Delay = latency
	a.Work = 1
}

// addTransfer charges a transfer of b bytes between two distinct hosts to
// the source uplink, the destination downlink and the backplane of a's
// usage, and returns the route latency.
func (n *Net) addTransfer(a *Action, src, dst int, b float64) float64 {
	a.AddUsage(n.Uplink(src), b)
	a.AddUsage(n.Downlink(dst), b)
	if n.HasBackplane() {
		a.AddUsage(n.Backplane(), b)
	}
	return n.RouteLatency(src, dst)
}

// Fixed builds an action that simply lasts the given duration without
// consuming shared resources; the profile-based and empirical simulators use
// it for measured task execution times and overheads.
func Fixed(name string, duration float64) *Action {
	if duration < 0 {
		panic(fmt.Sprintf("simgrid: fixed action %q has negative duration %g", name, duration))
	}
	return &Action{Name: name, Delay: duration}
}

// LoneActionTime predicts how long an action would take if it ran alone on
// the platform: delay + max over resources of amount/capacity. Useful for
// analytic expected-time computations and tests.
func (n *Net) LoneActionTime(a *Action) float64 {
	caps := n.caps
	t := 0.0
	for k, r := range a.v.res {
		if d := a.v.use[k] / caps[r] * a.Work; d > t {
			t = d
		}
	}
	return a.Delay + t
}
