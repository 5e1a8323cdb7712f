package campaign_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/profiler"
	"repro/internal/service"
)

// newEngine pairs a fresh fit-once registry with a campaign engine.
func newEngine(workers int) campaign.Engine {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	return campaign.Engine{Source: reg, Workers: workers}
}

// testSpec is the acceptance-criterion grid: 4 platform scales × 2
// algorithms × 2 models over the n=2000 half of the suite.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "engine-test",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{6, 8, 12, 16}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}
}

// fitEconomics sums a registry's fit-once economics: how many models it
// fitted (one entry each) and how many lookups it served from cache.
func fitEconomics(reg *service.ModelRegistry) (fits int, hits int64) {
	for _, info := range reg.Models() {
		fits++
		hits += info.Hits
	}
	return fits, hits
}

// TestCampaignDeterministicAcrossWorkerCounts pins the acceptance
// criterion: the rendered report is byte-identical at workers=1 and
// workers=8, each on a fresh registry, and both registries did the same
// fitting work.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	type outcome struct {
		report     string
		fits       int
		hits       int64
		cells, run int
	}
	run := func(workers int) outcome {
		reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
		eng := campaign.Engine{Source: reg, Workers: workers}
		res, err := eng.Run(context.Background(), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Write(&buf)
		fits, hits := fitEconomics(reg)
		return outcome{buf.String(), fits, hits, res.Plan.Cells(), res.Plan.Runs()}
	}
	serial := run(1)
	parallel := run(8)
	if serial.report != parallel.report {
		t.Errorf("campaign report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.report, parallel.report)
	}
	if serial.fits != parallel.fits || serial.hits != parallel.hits {
		t.Errorf("fits/hits: %d/%d at workers=1, %d/%d at workers=8",
			serial.fits, serial.hits, parallel.fits, parallel.hits)
	}
	// One fit per (platform, model) cell, never one per algorithm run.
	if serial.fits != serial.cells || serial.fits >= serial.run {
		t.Errorf("registry fitted %d models for %d cells of %d runs; want one per cell", serial.fits, serial.cells, serial.run)
	}
}

// TestCampaignReusesFitsWithinOneGrid checks the registry economics: each
// cell resolves its model once and amortizes it over the cell's algorithm
// runs, and a repeated campaign against the same registry refits nothing.
func TestCampaignReusesFitsWithinOneGrid(t *testing.T) {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	eng := campaign.Engine{Source: reg, Workers: 4}
	res, err := eng.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 4 platforms × 1 workload × 2 models = 8 cells of 2 algorithm runs
	// each: 8 fresh fits, one lookup per cell, so no cache hits yet.
	fits, hits := fitEconomics(reg)
	if fits != res.Plan.Cells() || hits != 0 {
		t.Errorf("first campaign: %d fits, %d hits; want %d fits, 0 hits", fits, hits, res.Plan.Cells())
	}
	// A second identical campaign hits the cache on every cell and fits
	// nothing new.
	if _, err = eng.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	fits, hits = fitEconomics(reg)
	if fits != res.Plan.Cells() || hits != int64(res.Plan.Cells()) {
		t.Errorf("second campaign: %d fits, %d hits; want %d fits, %d hits",
			fits, hits, res.Plan.Cells(), res.Plan.Cells())
	}
}

// TestCampaignCoversAllAxes runs one cell of every axis flavour: scaled
// node counts, bandwidth/latency scaling, two-speed heterogeneity, an
// MHEFT run on the homogeneous grid, and a profile-model cell.
func TestCampaignCoversAllAxes(t *testing.T) {
	eng := newEngine(0)
	res, err := eng.Run(context.Background(), campaign.Spec{
		Platforms: campaign.PlatformAxis{
			Base:           "bayreuth",
			Nodes:          []int{8},
			BandwidthScale: []float64{0.5},
			LatencyScale:   []float64{2},
			SpeedRatios:    []float64{2},
		},
		Workloads:  campaign.WorkloadAxis{SuiteSeeds: []int64{7}, Sizes: []int{3000}},
		Algorithms: []string{"CPA", "HCPA", "MCPA"},
		Models:     []string{"profile"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.Platform.Env != "bayreuth-x8-bw0.5-lat2-het2" {
		t.Errorf("cell platform = %q", cell.Platform.Env)
	}
	if cell.Instances != 27 {
		t.Errorf("cell has %d instances, want 27 (n=3000 half of the suite)", cell.Instances)
	}
	if len(cell.Algos) != 3 || len(cell.Pairs) != 3 {
		t.Errorf("cell has %d algo scores and %d pair scores, want 3 and 3", len(cell.Algos), len(cell.Pairs))
	}
	for _, a := range cell.Algos {
		if a.MedianExp <= 0 {
			t.Errorf("%s: non-positive median measured makespan %g", a.Algorithm, a.MedianExp)
		}
	}

	// MHEFT works on homogeneous grids through its one-phase builder.
	res, err = eng.Run(context.Background(), campaign.Spec{
		Platforms:  campaign.PlatformAxis{Base: "modern", Nodes: []int{8}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"MHEFT", "HCPA"},
		Models:     []string{"analytic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "MHEFT vs HCPA") {
		t.Errorf("report missing the MHEFT pair:\n%s", buf.String())
	}
}

// TestCampaignCancellation checks that a cancelled context aborts the run.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := newEngine(2)
	if _, err := eng.Run(ctx, testSpec()); err == nil {
		t.Error("cancelled campaign reported success")
	}
}
