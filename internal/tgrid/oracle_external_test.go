package tgrid_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// sameResult asserts bitwise equality of every Result field.
func sameResult(t *testing.T, ctx string, got, want *tgrid.Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Makespan, want.Makespan) {
		t.Fatalf("%s: makespan %v != %v", ctx, got.Makespan, want.Makespan)
	}
	for name, pair := range map[string][2][]float64{
		"TaskStart":      {got.TaskStart, want.TaskStart},
		"TaskFinish":     {got.TaskFinish, want.TaskFinish},
		"TaskStartupDur": {got.TaskStartupDur, want.TaskStartupDur},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %s has %d entries, want %d", ctx, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if !same(pair[0][i], pair[1][i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", ctx, name, i, pair[0][i], pair[1][i])
			}
		}
	}
	for name, pair := range map[string][2]map[[2]int]float64{
		"RedistStart":       {got.RedistStart, want.RedistStart},
		"RedistFinish":      {got.RedistFinish, want.RedistFinish},
		"RedistOverheadDur": {got.RedistOverheadDur, want.RedistOverheadDur},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %s has %d edges, want %d", ctx, name, len(pair[0]), len(pair[1]))
		}
		for k, w := range pair[1] {
			if g, ok := pair[0][k]; !ok || !same(g, w) {
				t.Fatalf("%s: %s%v = %v (present %v), want %v", ctx, name, k, g, ok, w)
			}
		}
	}
}

// truthMirror is the emulated cluster's timing (internal/cluster's
// truthTiming) on a private noise stream seeded like a Session: it lets
// the reference event loop consume the same draws the session does.
type truthMirror struct {
	h   *cluster.Hidden
	rng *rand.Rand
}

func (m truthMirror) noise() float64 {
	if m.h.NoiseSigma <= 0 {
		return 1
	}
	return math.Exp(m.rng.NormFloat64() * m.h.NoiseSigma)
}

func (m truthMirror) TaskStartup(task *dag.Task, p int) float64 {
	return m.h.StartupTime(p) * m.noise()
}

func (m truthMirror) TaskWork(task *dag.Task, hosts []int) (float64, []float64, [][]float64) {
	h := m.h
	kernel := h.KernelTime(task, len(hosts))
	if !h.Cluster.IsHomogeneous() {
		kernel *= h.Cluster.NodePower / h.Cluster.MinPowerOf(hosts)
	}
	if h.StragglerHost >= 0 && h.StragglerFactor > 1 {
		for _, host := range hosts {
			if host == h.StragglerHost {
				kernel *= h.StragglerFactor
				break
			}
		}
	}
	return kernel * m.noise(), nil, nil
}

func (m truthMirror) RedistOverhead(pSrc, pDst int) float64 {
	return m.h.RedistOverheadTime(pSrc, pDst) * m.noise()
}

// oracleSchedules builds a spread of schedules on the cluster: several DAGs
// under algorithms from the narrow (SEQ) to the serialising (DATAPAR).
func oracleSchedules(t *testing.T, c platform.Cluster) []*sched.Schedule {
	t.Helper()
	model := perfmodel.NewAnalytic(c)
	cost := perfmodel.CostFunc(model)
	comm := perfmodel.CommFunc(model, c)
	var out []*sched.Schedule
	for seed := int64(0); seed < 3; seed++ {
		g := dag.MustGenerate(dag.GenParams{
			Tasks: 6 + int(seed)*8, InputMatrices: 2 + int(seed), AddRatio: 0.5, N: 2000, Seed: 60 + seed,
		})
		for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}, sched.Sequential{}, sched.DataParallel{}} {
			var s *sched.Schedule
			var err error
			if c.IsHomogeneous() {
				s, err = sched.Build(algo, g, c.Nodes, cost, comm)
			} else {
				s, err = sched.BuildHetero(algo, g, c, cost, comm)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

// TestRunMatchesOracle is the differential guard for Run: every Result
// field must equal the reference event loop's bit for bit, under model
// timings on the parallel-task path (analytic, with and without a switch
// backplane) and the fixed-duration path (profile, empirical), and under
// the emulated cluster's noisy timing on a homogeneous, a heterogeneous and
// a straggler platform. For the emulated cluster the run goes through a
// Session, and the session's next noise draw after each run must equal the
// mirror stream's, which proves both consumed the same number of draws.
func TestRunMatchesOracle(t *testing.T) {
	bayreuth := platform.Bayreuth()
	withBackplane := bayreuth
	withBackplane.BackplaneBandwidth = 1e9

	truth := cluster.Bayreuth()
	profile := perfmodel.NewProfileData()
	for _, k := range []dag.Kernel{dag.KernelMul, dag.KernelAdd} {
		for p := 1; p <= bayreuth.Nodes; p++ {
			profile.TaskTimes[perfmodel.TaskKey{Kernel: k, N: 2000, P: p}] =
				truth.KernelTime(&dag.Task{Kernel: k, N: 2000}, p)
		}
	}
	for p := 1; p <= bayreuth.Nodes; p++ {
		profile.Startup[p] = truth.StartupTime(p)
		profile.RedistByDst[p] = truth.RedistOverheadTime(1, p)
	}
	profModel, err := perfmodel.NewProfile(profile)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		c     platform.Cluster
		model perfmodel.Model
	}{
		{"analytic", bayreuth, perfmodel.NewAnalytic(bayreuth)},
		{"analytic-backplane", withBackplane, perfmodel.NewAnalytic(withBackplane)},
		{"profile", bayreuth, profModel},
		{"empirical", bayreuth, perfmodel.PaperEmpirical()},
	} {
		net, err := simgrid.NewNet(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		timing := tgrid.ModelTiming{Model: tc.model}
		for _, s := range oracleSchedules(t, tc.c) {
			want, err := tgrid.RunOracle(net, s, timing)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tgrid.Run(net, s, timing)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, tc.name+"/"+s.Graph.Name+"/"+s.Algorithm, got, want)
		}
	}

	powers := make([]float64, bayreuth.Nodes)
	for i := range powers {
		powers[i] = 250e6
		if i%3 == 0 {
			powers[i] = 500e6
		}
	}
	hetero := cluster.Bayreuth()
	hetero.Cluster = platform.NewHeterogeneous("mixed", powers, 125e6, 100e-6)
	straggler := cluster.Bayreuth()
	straggler.StragglerHost = 5
	straggler.StragglerFactor = 3
	for _, env := range []struct {
		name string
		h    *cluster.Hidden
	}{{"homogeneous", cluster.Bayreuth()}, {"heterogeneous", hetero}, {"straggler", straggler}} {
		em, err := cluster.NewEmulator(env.h, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range oracleSchedules(t, env.h.Cluster) {
			seed := int64(100 + i)
			sess := em.Session(seed)
			mirror := truthMirror{h: env.h, rng: rand.New(rand.NewSource(seed))}
			for run := 0; run < 2; run++ {
				ctx := env.name + "/" + s.Graph.Name + "/" + s.Algorithm
				got, err := sess.Execute(s)
				if err != nil {
					t.Fatal(err)
				}
				want, err := tgrid.RunOracle(em.Net(), s, mirror)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, ctx, got, want)
				if a, b := sess.MeasureStartup(1), env.h.StartupTime(1)*mirror.noise(); a != b {
					t.Fatalf("%s run %d: next noise draw %v != %v: RNG consumption differs", ctx, run, a, b)
				}
			}
		}
	}
}
