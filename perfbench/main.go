// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points for a fixed time,
// checks every output against a reference, and prints its metrics; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no tracing.
// With --trace 1 it instead records spans around its calls into each layer,
// reports each layer's self time and the tracing overhead, and drives the
// per-layer ladder (ladder.go) on the workload's inputs. README.md maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed reproduces the committed golden snapshots: it is the noise and
// campaign seed they were rendered with. Any other seed turns each golden
// comparison into a determinism check against a reference computed in-run.
const defaultSeed = 42

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Env is what every workload receives.
type Env struct {
	Workload string
	Seed     int64
	Seconds  float64
	Root     string // repository root the benchmark runs in
	Build    string // scratch directory inside Root for binaries, stores, traces
	Tracer   *Tracer

	metrics map[string]Metric
	tally   Tally
}

// Set records a metric.
func (e *Env) Set(name string, v float64, unit string) { e.metrics[name] = Metric{v, unit} }

// untraced runs fn with tracing off, for the untraced half of a traced run.
func (e *Env) untraced(fn func() error) error {
	tr := e.Tracer
	e.Tracer = nil
	defer func() { e.Tracer = tr }()
	return fn()
}

// Tally counts attempted operations and the ones that failed or returned a
// wrong output.
type Tally struct {
	Attempted, Failed int
	first             []string // the first few failures, for the report
}

// Check counts one operation; ok false marks it failed with a reason.
func (t *Tally) Check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.Failed++
		if len(t.first) < 5 {
			t.first = append(t.first, fmt.Sprintf(format, args...))
		}
	}
}

// Fail counts one failed operation.
func (t *Tally) Fail(format string, args ...any) { t.Check(false, format, args...) }

// workloads are described, with the reason each was chosen, in
// BENCHMARK.json and README.md.
var workloads = map[string]func(*Env) error{
	"paper-suite":   runPaperSuite,
	"robust-trials": runRobustTrials,
	"service-mixed": runServiceMixed,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-suite, robust-trials or service-mixed")
		seed    = flag.Int64("seed", defaultSeed, "input seed; the default reproduces the golden snapshots")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown --workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	for _, need := range []string{"go.mod", "testdata/golden", "cmd/reprosrv"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			fatalf("run from the repository root: %v", err)
		}
	}
	env := &Env{
		Workload: *name, Seed: *seed, Seconds: *seconds,
		Root: root, Build: filepath.Join(root, ".bench_build"),
		metrics: map[string]Metric{},
	}
	if err := os.MkdirAll(env.Build, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *trace == 1 {
		env.Tracer = NewTracer()
	}

	fp := hostFingerprint(root)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	start := time.Now()
	if err := run(env); err != nil {
		fatalf("%s: %v", *name, err)
	}
	if env.Tracer != nil {
		if err := ladder(env); err != nil {
			fatalf("%s ladder: %v", *name, err)
		}
		path := fmt.Sprintf("%s/trace-%s-%d.jsonl", env.Build, *name, *seed)
		if err := env.Tracer.WriteFile(path); err != nil {
			fatalf("write spans: %v", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, f := range env.tally.first {
		fmt.Printf("FAILED: %s\n", f)
	}
	fmt.Printf("error_ratio = %.6g (%d failed of %d attempted)\n",
		ErrorRatio(env.tally.Failed, env.tally.Attempted), env.tally.Failed, env.tally.Attempted)
	names := make([]string, 0, len(env.metrics))
	for n := range env.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, env.metrics[n].Value, env.metrics[n].Unit)
	}
	fmt.Printf("run took %.1fs\n", time.Since(start).Seconds())
	res := Result{
		Correct:   env.tally.Failed == 0 && env.tally.Attempted > 0,
		Attempted: env.tally.Attempted,
		Failed:    env.tally.Failed,
		Metrics:   env.metrics,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
