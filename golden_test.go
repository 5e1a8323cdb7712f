package repro

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/service"
)

// The golden snapshot corpus: canonical renderings of every paper artifact
// (Table I, Figures 1–8, Table II) plus the campaign and robustness worked
// examples, committed under testdata/golden and diffed byte-for-byte. The
// corpus is the repository's last line of defence against silent output
// drift — the determinism tests prove a report is stable across worker
// counts within one build, the corpus proves it is stable across commits.
//
// To refresh after an intentional output change:
//
//	go test -run 'TestGolden' -update .

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden snapshots instead of diffing against them")

// goldenCompare diffs got against testdata/golden/<name>, or rewrites the
// snapshot under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (regenerate with: go test -run TestGolden -update .): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	line, gotLine, wantLine := firstDiff(got, want)
	t.Errorf("%s drifted from its golden snapshot at line %d:\n  got:  %q\n  want: %q\n(if the change is intentional: go test -run TestGolden -update .)",
		path, line, gotLine, wantLine)
}

// firstDiff locates the first differing line, 1-based.
func firstDiff(got, want []byte) (int, string, string) {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "<eof>", "<eof>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return i + 1, gl, wl
		}
	}
	return 0, "", ""
}

// goldenLab builds the evaluation lab once for every golden study subtest.
var goldenLab struct {
	once sync.Once
	lab  *experiments.Lab
	err  error
}

func goldenSharedLab() (*experiments.Lab, error) {
	goldenLab.once.Do(func() {
		goldenLab.lab, goldenLab.err = experiments.NewLab(experiments.DefaultConfig())
	})
	return goldenLab.lab, goldenLab.err
}

// goldenStudies is the paper-artifact half of the corpus.
var goldenStudies = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2",
}

// TestGoldenStudies pins every paper artifact byte-for-byte.
func TestGoldenStudies(t *testing.T) {
	cfg := experiments.DefaultConfig()
	for _, name := range goldenStudies {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			err := experiments.RenderStudy(context.Background(), name, cfg, goldenSharedLab, &buf)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, name+".txt", buf.Bytes())
		})
	}
}

// goldenCampaignSpec is the campaign half of the corpus: a 2-platform ×
// 2-model sweep of the n=2000 suite, the same shape the CI service smoke
// submits.
func goldenCampaignSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "golden-campaign",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{8, 16}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}
}

// TestGoldenCampaignExample pins the campaign report byte-for-byte.
func TestGoldenCampaignExample(t *testing.T) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := campaign.Engine{Source: reg, Workers: cfg.Parallelism}
	res, err := eng.Run(context.Background(), goldenCampaignSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	goldenCompare(t, "campaign-example.txt", buf.Bytes())
}

// goldenRobustnessSpec is the robustness half of the corpus — the exact
// spec examples/robust runs and docs/ROBUSTNESS.md walks through, so the
// committed snapshot, the example's output and the documentation's worked
// example can never drift apart.
func goldenRobustnessSpec() robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "bayreuth-hcpa-mcpa-stability",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{
			Trials: 16,
			Levels: []float64{0.02, 0.05, 0.1, 0.2},
		},
	}
}

// TestGoldenRobustnessExample pins the robustness report byte-for-byte.
func TestGoldenRobustnessExample(t *testing.T) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := robust.Engine{Source: reg, Workers: cfg.Parallelism}
	res, err := eng.Run(context.Background(), goldenRobustnessSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	goldenCompare(t, "robustness-example.txt", buf.Bytes())
}

// goldenRobustnessSequentialSpec is the stopping-enabled variant of the
// robustness example: the same study with the Wilson stop rule on, pinning
// the sequential report (per-cell trials saved) byte-for-byte.
func goldenRobustnessSequentialSpec() robust.Spec {
	spec := goldenRobustnessSpec()
	spec.Name = "bayreuth-hcpa-mcpa-stability-sequential"
	spec.Robustness.Sequential = true
	return spec
}

// TestGoldenRobustnessSequential pins the sequential-stopping report
// byte-for-byte.
func TestGoldenRobustnessSequential(t *testing.T) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := robust.Engine{Source: reg, Workers: cfg.Parallelism}
	res, err := eng.Run(context.Background(), goldenRobustnessSequentialSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	goldenCompare(t, "robustness-sequential.txt", buf.Bytes())
}

// goldenClusterShardSpec is the spec CI's sharded-execution smoke submits
// to a two-replica cluster (a 3-cell grid, one replica SIGKILL'd mid-cell).
// The snapshot is regenerated here by an in-process run: sharded execution
// is byte-identical to an in-process run, so one golden pins both paths —
// the CI job byte-compares the surviving cluster's report against the same
// file.
func goldenClusterShardSpec() robust.Spec {
	return robust.Spec{
		Spec: campaign.Spec{
			Name:       "shard-smoke",
			Seed:       42,
			Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{6, 8, 16}},
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000, 3000}, SuiteSeeds: []int64{2011}},
			Algorithms: []string{"CPA", "HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{
			Trials: 64,
			Levels: []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5},
		},
	}
}

// TestGoldenClusterShard pins the sharded-execution smoke report
// byte-for-byte.
func TestGoldenClusterShard(t *testing.T) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := robust.Engine{Source: reg, Workers: cfg.Parallelism}
	res, err := eng.Run(context.Background(), goldenClusterShardSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	goldenCompare(t, "cluster-shard.txt", buf.Bytes())
}

// goldenArrivalSpec is the online-arrival corner of the corpus — the exact
// spec examples/arrival runs, docs/WORKLOADS.md walks through and the CI
// arrivals smoke submits over HTTP: a mixed population of the committed DOT
// trace plus two canonical shapes, Poisson arrivals on 8-node partitions.
func goldenArrivalSpec() arrival.Spec {
	return arrival.Spec{
		Name: "bayreuth-online-arrivals",
		Workloads: campaign.WorkloadAxis{
			Traces: []campaign.TraceRef{{Path: "testdata/traces/linalg-pipeline.dot"}},
			Shapes: []string{"strassen", "reduction"},
			Sizes:  []int{2000},
		},
		Algorithms:  []string{"HCPA", "MCPA"},
		Rate:        0.02,
		Jobs:        12,
		ArrivalSeed: 7,
		Partition:   8,
	}
}

// TestGoldenArrivalExample pins the online-arrival report byte-for-byte.
func TestGoldenArrivalExample(t *testing.T) {
	cfg := experiments.DefaultConfig()
	reg := service.NewModelRegistry(cfg.Profile, cfg.Empirical)
	eng := arrival.Engine{Source: reg, Workers: cfg.Parallelism}
	res, err := eng.Run(context.Background(), goldenArrivalSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	goldenCompare(t, "arrival-example.txt", buf.Bytes())
}

// TestGoldenCorpusComplete fails when a committed snapshot no longer has a
// test regenerating it, so the corpus cannot accumulate dead files.
func TestGoldenCorpusComplete(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"campaign-example.txt":      true,
		"robustness-example.txt":    true,
		"robustness-sequential.txt": true,
		"cluster-shard.txt":         true,
		"arrival-example.txt":       true,
	}
	for _, name := range goldenStudies {
		want[name+".txt"] = true
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("testdata/golden/%s has no regenerating test; delete it or wire it up", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("golden snapshot %s is missing (run: go test -run TestGolden -update .)", name)
	}
}

// TestGoldenMatchesExampleSpec keeps the corpus honest about its promise:
// the robustness snapshot's header must carry the example's campaign name
// and Monte Carlo parameters, so a drive-by edit of either spec shows up
// as a corpus failure rather than a silently re-pinned snapshot.
func TestGoldenMatchesExampleSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "robustness-example.txt"))
	if err != nil {
		t.Skipf("no snapshot yet: %v", err)
	}
	spec := goldenRobustnessSpec()
	for _, want := range []string{
		fmt.Sprintf("Campaign %q", spec.Name),
		fmt.Sprintf("trials=%d per level", spec.Robustness.Trials),
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("robustness snapshot lacks %q; spec and corpus drifted", want)
		}
	}
}
