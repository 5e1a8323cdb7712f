package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// goldenStudies are the paper artifacts committed under testdata/golden.
var goldenStudies = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2",
}

// paperConfig is mixedsim's default configuration with the benchmark seed as
// the environment's noise seed.
func paperConfig(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.NoiseSeed = seed
	return cfg
}

// regenerate is one `mixedsim -experiment all`: a fresh lab, then every
// study rendered through RenderStudy. Spans go under parent when traced.
func regenerate(e *Env, cfg experiments.Config, run string, parent int) (map[string][]byte, time.Duration, error) {
	start := time.Now()
	sp := e.Tracer.Begin("experiments.newlab", run, parent)
	lab, err := experiments.NewLab(cfg)
	e.Tracer.End(sp)
	if err != nil {
		return nil, 0, err
	}
	labFn := func() (*experiments.Lab, error) { return lab, nil }
	out := make(map[string][]byte, len(experiments.StudyNames()))
	for _, name := range experiments.StudyNames() {
		var buf bytes.Buffer
		sp := e.Tracer.Begin("experiments.study."+name, run, parent)
		err := experiments.RenderStudy(context.Background(), name, cfg, labFn, &buf)
		e.Tracer.End(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("study %s: %w", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out, time.Since(start), nil
}

// paperReference is what every regeneration must reproduce: the golden
// snapshots on the default seed, plus the first regeneration's own output
// for the studies without a snapshot (and for every study on other seeds).
type paperReference map[string][]byte

func loadGoldens(root string) (paperReference, error) {
	ref := paperReference{}
	for _, name := range goldenStudies {
		data, err := os.ReadFile(filepath.Join(root, "testdata", "golden", name+".txt"))
		if err != nil {
			return nil, err
		}
		ref[name] = data
	}
	return ref, nil
}

// check compares one regeneration against the reference, adopting outputs
// the reference does not pin yet; every study is one checked operation.
func (ref paperReference) check(t *Tally, out map[string][]byte) {
	for _, name := range experiments.StudyNames() {
		want, ok := ref[name]
		if !ok {
			ref[name] = out[name]
			want = out[name]
		}
		t.Check(bytes.Equal(out[name], want), "paper-suite: study %s differs from its reference", name)
	}
}

// paperSetups is how many times a run measures set-up; the median is
// reported.
const paperSetups = 51

func runPaperSuite(e *Env) error {
	cfg := paperConfig(e.Seed)
	// The reference snapshots are the benchmark's, not the program's, so
	// they are read before set-up is timed.
	ref := paperReference{}
	if e.Seed == defaultSeed {
		var err error
		if ref, err = loadGoldens(e.Root); err != nil {
			return err
		}
	}
	// Set-up is what a run pays before its first regeneration can start:
	// building the lab (suite generation and environment assembly; the fits
	// are lazy and land in the regeneration, as they do for users).
	var setups []float64
	for i := 0; i < paperSetups; i++ {
		start := time.Now()
		if _, err := experiments.NewLab(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The first regeneration is cold (page faults, first-use allocations);
	// it is checked but neither timed nor traced.
	var out map[string][]byte
	var cold time.Duration
	err := e.untraced(func() (err error) {
		out, cold, err = regenerate(e, cfg, "warmup", 0)
		return err
	})
	if err != nil {
		return err
	}
	ref.check(&e.tally, out)
	fmt.Printf("paper-suite cold regeneration %.3fs\n", cold.Seconds())

	if e.Tracer != nil {
		return tracePaperSuite(e, cfg, ref)
	}
	var regens, rel []float64
	window := time.Duration(e.Seconds * float64(time.Second))
	rss := sampleRSS("self")
	before := referenceMs(runtime.NumCPU())
	for start := time.Now(); time.Since(start) < window; {
		out, d, err := regenerate(e, cfg, "", 0)
		if err != nil {
			return err
		}
		after := referenceMs(runtime.NumCPU())
		ref.check(&e.tally, out)
		regens = append(regens, d.Seconds()*1000)
		rel = append(rel, d.Seconds()*1000/((before+after)/2))
		before = after
	}
	rssMB, err := rss()
	if err != nil {
		return err
	}
	peak, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	perS := float64(len(experiments.StudyNames())) / (Median(regens) / 1000)
	s := e.setE2E(setups, regens, rel, rssMB)
	fmt.Printf("peak_rss_mb = %.2f MB (the benchmark process)\n", peak)
	fmt.Printf("regen_s = %.4f s (median of %d); slowest %.4f s; studies rendered/s = %.3f\n",
		s.P50/1000, s.N, s.Max/1000, perS)
	return nil
}

// tracePaperSuite splits the run's window between untraced and traced
// regenerations, so the tracing overhead is measured on the same inputs.
func tracePaperSuite(e *Env, cfg experiments.Config, ref paperReference) error {
	half := time.Duration(e.Seconds * float64(time.Second) / 2)
	var plain []float64
	err := e.untraced(func() error {
		for start := time.Now(); time.Since(start) < half || len(plain) < 3; {
			out, d, err := regenerate(e, cfg, "", 0)
			if err != nil {
				return err
			}
			ref.check(&e.tally, out)
			plain = append(plain, d.Seconds()*1000)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var traced []float64
	for i, start := 0, time.Now(); time.Since(start) < half || len(traced) < 3; i++ {
		run := fmt.Sprintf("regen-%d", i)
		root := e.Tracer.Begin("bench.regen", run, 0)
		out, d, err := regenerate(e, cfg, run, root)
		e.Tracer.End(root)
		if err != nil {
			return err
		}
		ref.check(&e.tally, out)
		traced = append(traced, d.Seconds()*1000)
	}
	e.setOverhead(Median(plain), Median(traced), Sum(traced))
	studyTimes(e)
	return nil
}
