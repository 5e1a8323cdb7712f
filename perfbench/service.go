package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/robust"
	"repro/internal/service"
)

// The service-mixed traffic: an open loop of Poisson POST /v1/schedule
// requests at a fixed rate, sent by at most nproc connections, beside one
// closed-loop client that submits a durable robustness job, waits for it to
// finish and pauses before the next.
//
// The rate and the pause were chosen from runs on a shared 2-core Xeon host
// (README.md has the figures): at 600 req/s a daemon's schedule median moved
// between 1.5 and 8.1 ms, as the host's load pushed the daemon toward
// saturation while a job ran; at 300 req/s with an 0.8 s pause, jobs held
// the cores often enough that it moved between 1.4 and 6.6 ms; at 300 req/s
// with a 2 s pause it stayed between 1.3 and 2.6 ms, and the tail still
// shows each running job.
const (
	scheduleRate = 300             // requests per second, offered
	jobPause     = 2 * time.Second // between one job's end and the next submit
	serviceWarm  = 2 * time.Second // traffic before each daemon's share of the window, not timed
	serviceRuns  = 5               // daemons driven per measured run, one after another; each serves a fifth of the window
	// scheduleLimit is the latency, from its due time, within which a
	// schedule response counts as served on time.
	scheduleLimit = 25 * time.Millisecond
)

// jobSpec is the robustness job the closed loop submits: the spec
// testdata/golden/robustness-example.txt pins.
func jobSpec(seed int64) robust.Spec {
	spec := robust.Spec{
		Spec: campaign.Spec{
			Name:       "bayreuth-hcpa-mcpa-stability",
			Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
			Algorithms: []string{"HCPA", "MCPA"},
			Models:     []string{"analytic"},
		},
		Robustness: robust.Axis{Trials: 16, Levels: []float64{0.02, 0.05, 0.1, 0.2}},
	}
	if seed != defaultSeed {
		spec.Seed = seed
	}
	return spec
}

// server is one reprosrv replica on its own temporary store directory.
type server struct {
	cmd     *exec.Cmd
	base    string
	pid     string
	dir     string
	done    chan error
	started time.Time // when the daemon was launched
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the daemon and waits until /healthz answers.
func startServer(e *Env) (*server, error) {
	bin := filepath.Join(e.Build, "reprosrv")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary missing (perfbench/run.sh builds it): %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.Build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(e.Build, "tmp"), "store-")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", dir, "-replica-id", "bench",
		"-seed", strconv.FormatInt(e.Seed, 10), "-drain", "5s")
	// The daemon dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), dir: dir,
		done: make(chan error, 1), started: started}
	go func() { s.done <- cmd.Wait() }()
	c := service.NewClient(s.base)
	for deadline := time.Now().Add(60 * time.Second); ; {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Health(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		select {
		case werr := <-s.done:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("daemon exited before it was healthy: %v", werr)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("daemon not healthy after 60s: %v", err)
		}
	}
}

// stop ends the daemon — gracefully, then by force — waits for it to exit
// and removes its store.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	os.RemoveAll(s.dir)
}

// scrape sums every series of each named metric in the daemon's /metrics.
func (s *server) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		for _, want := range names {
			if name == want {
				v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[name] += v
			}
		}
	}
	return out, sc.Err()
}

// request is one entry of the schedule mix with the bytes a correct server
// answers it with, computed in-process at set-up.
type request struct {
	body      []byte
	req       service.ScheduleRequest
	hit, miss []byte // expected response bodies for a registry hit and miss
}

// requestMix is every DAG of the seed's paper suite under each of the
// paper's three algorithms with the analytic model, as cmd/loadgen sends
// them, in an order shuffled by the seed. Every seed thus sends the same
// sizes and algorithms; only the DAGs' random structure and the order
// change.
func requestMix(seed int64) ([]request, error) {
	suite, err := dag.GenerateSuite(seed)
	if err != nil {
		return nil, err
	}
	var mix []request
	for _, inst := range suite {
		for _, algo := range []string{"CPA", "HCPA", "MCPA"} {
			r := request{req: service.ScheduleRequest{DAG: inst.Graph, Algorithm: algo, Model: "analytic", Seed: seed}}
			if r.body, err = json.Marshal(r.req); err != nil {
				return nil, err
			}
			mix = append(mix, r)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix, nil
}

// inProcessReference fills each request's expected bodies from an
// in-process Service (the daemon encodes with two-space indentation and a
// trailing newline), and returns the service for the ladder's timing.
func inProcessReference(seed int64, mix []request) (*service.Service, error) {
	opts := service.DefaultOptions()
	opts.Seed = seed
	svc := service.New(opts)
	for i := range mix {
		resp, err := svc.Schedule(context.Background(), mix[i].req)
		if err != nil {
			return nil, err
		}
		for _, hit := range []bool{true, false} {
			resp.CacheHit = hit
			b, err := json.MarshalIndent(resp, "", "  ")
			if err != nil {
				return nil, err
			}
			b = append(b, '\n')
			if hit {
				mix[i].hit = b
			} else {
				mix[i].miss = b
			}
		}
	}
	return svc, nil
}

// jobReference is the report every job must produce: the golden snapshot on
// the default seed, otherwise an in-process run of the same spec.
func jobReference(e *Env, spec robust.Spec) ([]byte, error) {
	if e.Seed == defaultSeed {
		return os.ReadFile(filepath.Join(e.Root, "testdata", "golden", "robustness-example.txt"))
	}
	out, _, err := runStudy(&robust.Engine{Source: newRegistry(), Workers: runtime.NumCPU()}, spec)
	return out, err
}

// firstFit sends one request per model kind so the daemon's registry fits
// the models the mix uses before the run is timed.
func firstFit(s *server, mix []request) error {
	seen := map[string]bool{}
	for _, r := range mix {
		if seen[r.req.Model] {
			continue
		}
		seen[r.req.Model] = true
		resp, err := http.Post(s.base+"/v1/schedule", "application/json", bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("first fit: HTTP %d", resp.StatusCode)
		}
	}
	return nil
}

// session is the outcome of one stretch of service traffic.
type session struct {
	schedMs []float64 // per request in the window, from its due time
	httpMs  []float64 // per request in the window, send to response
	jobS    []float64 // per job finished in the window, Created→Ended, s
	jobSeen []float64 // the same jobs, submit to the client seeing done, s
	jobWait []float64 // Created→Started, ms
	jobRun  []float64 // Started→Ended, ms
	hits    int
	onTime  int // requests in the window answered within scheduleLimit
	sent    int // every request of the run, warm-up included
	jobsRun int // every job of the run, warm-up included
	maxLate time.Duration
	backlog int
	window  time.Duration
}

// drive sends the open-loop schedule traffic (and, with jobs, the job
// stream) for warm+window and times the requests due inside the window.
// Every response is checked against its in-process reference.
func drive(e *Env, s *server, mix []request, jobs bool, jobRef []byte, warm, window time.Duration) (*session, error) {
	workers := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Poisson due times from the seed, as offsets from the start.
	rng := rand.New(rand.NewSource(e.Seed))
	var due []time.Duration
	for t := time.Duration(0); t < warm+window; {
		t += time.Duration(rng.ExpFloat64() / scheduleRate * float64(time.Second))
		due = append(due, t)
	}
	type item struct {
		i   int
		due time.Time
	}
	// Sized to every request of the run, so the generator never blocks on
	// busy workers: a request waiting here is backlog, and its latency
	// still counts from its due time.
	queue := make(chan item, len(due))
	out := &session{window: window, sent: len(due)}
	var mu sync.Mutex
	var completed int
	var wg sync.WaitGroup
	start := time.Now()
	windowStart, windowEnd := start.Add(warm), start.Add(warm+window)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				r := &mix[it.i%len(mix)]
				sent := time.Now()
				body, err := post(client, s.base+"/v1/schedule", r.body)
				done := time.Now()
				mu.Lock()
				completed++
				hit := bytes.Equal(body, r.hit)
				e.tally.Check(err == nil && (hit || bytes.Equal(body, r.miss)),
					"service: /v1/schedule response %d differs from the in-process reference (err %v)", it.i, err)
				if !it.due.Before(windowStart) && it.due.Before(windowEnd) {
					out.schedMs = append(out.schedMs, float64(done.Sub(it.due))/1e6)
					if err == nil && done.Sub(it.due) <= scheduleLimit {
						out.onTime++
					}
					out.httpMs = append(out.httpMs, float64(done.Sub(sent))/1e6)
					if hit {
						out.hits++
					}
					if e.Tracer != nil {
						run := fmt.Sprintf("req-%d", it.i)
						root := e.Tracer.Record("loadgen.request", run, 0, it.due, done)
						e.Tracer.Record("service.schedule", run, root, sent, done)
					}
				}
				mu.Unlock()
			}
		}()
	}

	jobErr := make(chan error, 1)
	if jobs {
		go func() { jobErr <- jobStream(e, s, jobRef, out, &mu, windowStart, windowEnd) }()
	} else {
		jobErr <- nil
	}

	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		if late := time.Since(at); late > out.maxLate && !at.Before(windowStart) {
			out.maxLate = late
		}
		queue <- item{i, at}
	}
	mu.Lock()
	out.backlog = len(due) - completed
	mu.Unlock()
	close(queue)
	wg.Wait()
	if err := <-jobErr; err != nil {
		return nil, err
	}
	return out, nil
}

// post sends one request and returns the response body; a non-200 status
// is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return b, nil
}

// jobStream is the closed loop: submit, wait for the job to finish, pause,
// repeat, until the window ends. Jobs submitted inside the window are timed
// by the daemon's own stamps, from submit (Created) to done (Ended): the
// client learns of the end through a long-poll that re-checks every 150 ms,
// which would round the client's figure to that step. The client's view is
// printed beside it.
func jobStream(e *Env, s *server, ref []byte, out *session, mu *sync.Mutex, windowStart, windowEnd time.Time) error {
	ctx, cancel := context.WithDeadline(context.Background(), windowEnd.Add(time.Minute))
	defer cancel()
	c := service.NewClient(s.base)
	spec := jobSpec(e.Seed)
	for i := 0; time.Now().Before(windowEnd); i++ {
		submitted := time.Now()
		st, err := c.SubmitRobustness(ctx, spec)
		if err != nil {
			mu.Lock()
			e.tally.Fail("service: submit job: %v", err)
			mu.Unlock()
			return nil
		}
		for st.State == service.JobQueued || st.State == service.JobRunning {
			st, err = watchRobustness(ctx, s.base, st.ID)
			if err != nil {
				return err
			}
		}
		done := time.Now()
		mu.Lock()
		out.jobsRun++
		e.tally.Check(st.State == service.JobDone && st.Output == string(ref),
			"service: job %s ended %s; report matches reference: %v", st.ID, st.State, st.Output == string(ref))
		if !submitted.Before(windowStart) && st.Started != nil && st.Ended != nil {
			run := fmt.Sprintf("job-%d", i)
			out.jobS = append(out.jobS, st.Ended.Sub(st.Created).Seconds())
			out.jobSeen = append(out.jobSeen, done.Sub(submitted).Seconds())
			out.jobWait = append(out.jobWait, float64(st.Started.Sub(st.Created))/1e6)
			out.jobRun = append(out.jobRun, float64(st.Ended.Sub(*st.Started))/1e6)
			root := e.Tracer.Record("bench.job", run, 0, submitted, done)
			e.Tracer.Record("service.job_wait", run, root, st.Created, *st.Started)
			e.Tracer.Record("service.job_run", run, root, *st.Started, *st.Ended)
		}
		mu.Unlock()
		time.Sleep(jobPause)
	}
	return nil
}

// watchRobustness long-polls one job until its state or progress moves.
func watchRobustness(ctx context.Context, base, id string) (*service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/robustness/"+id+"?watch=5s", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch job %s: HTTP %d", id, resp.StatusCode)
	}
	var st service.JobStatus
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

// storeMetrics are the daemon counters the store layer's per-job figures
// are differenced from.
var storeMetrics = []string{
	"repro_store_fsync_seconds_count", "repro_store_fsync_seconds_sum",
	"repro_store_wal_bytes_total", "repro_store_frames_total",
}

// serviceFixture is what every daemon is checked against, computed in
// process once per run, and the set-up times measured so far.
type serviceFixture struct {
	mix    []request
	jobRef []byte
	svc    *service.Service // in-process twin, for the ladder
	setups []float64
}

func newServiceFixture(e *Env) (*serviceFixture, error) {
	mix, err := requestMix(e.Seed)
	if err != nil {
		return nil, err
	}
	svc, err := inProcessReference(e.Seed, mix)
	if err != nil {
		return nil, err
	}
	jobRef, err := jobReference(e, jobSpec(e.Seed))
	if err != nil {
		return nil, err
	}
	return &serviceFixture{mix: mix, jobRef: jobRef, svc: svc}, nil
}

// setupsPerDaemon is how many cold set-ups are measured for each daemon a
// run drives. A set-up takes about 7 ms, most of it the daemon's process
// start, and moves with the host's load, so a run measures more than it
// drives, each batch just before the daemon that serves the next share of
// the window.
const setupsPerDaemon = 3

// launch measures setupsPerDaemon cold set-ups — daemon launch to healthy
// plus the first registry fit — and returns the last daemon, still running;
// the others are stopped.
func (f *serviceFixture) launch(e *Env) (*server, error) {
	for i := 0; ; i++ {
		srv, err := startServer(e)
		if err != nil {
			return nil, err
		}
		err = firstFit(srv, f.mix)
		f.setups = append(f.setups, time.Since(srv.started).Seconds())
		if err == nil && i == setupsPerDaemon-1 {
			return srv, nil
		}
		srv.stop()
		if err != nil {
			return nil, err
		}
	}
}

// add folds another daemon's session into s.
func (s *session) add(o *session) {
	s.schedMs = append(s.schedMs, o.schedMs...)
	s.httpMs = append(s.httpMs, o.httpMs...)
	s.jobS = append(s.jobS, o.jobS...)
	s.jobSeen = append(s.jobSeen, o.jobSeen...)
	s.jobWait = append(s.jobWait, o.jobWait...)
	s.jobRun = append(s.jobRun, o.jobRun...)
	s.hits += o.hits
	s.onTime += o.onTime
	s.sent += o.sent
	s.jobsRun += o.jobsRun
	s.backlog += o.backlog
	s.window += o.window
	s.maxLate = max(s.maxLate, o.maxLate)
}

func runServiceMixed(e *Env) error {
	if e.Tracer != nil {
		return traceServiceMixed(e)
	}
	f, err := newServiceFixture(e)
	if err != nil {
		return err
	}
	// Each daemon is launched fresh, warmed up, and serves an equal share of
	// the window: how fast a daemon runs the job stream's job is decided per
	// daemon (see below), and several daemons per run keep one unlucky draw
	// from deciding the run.
	window := time.Duration(e.Seconds * float64(time.Second))
	ss := &session{}
	peak := 0.0
	var rel []float64
	// A request is served on one core, so the reference loop runs on one:
	// over five runs on a shared 2-core host the loop on every core took
	// 64–150 ms while the schedule median held at 1.3–1.9 ms, and dividing
	// by it added the noise it was meant to remove.
	before := referenceMs(1)
	for i := 0; i < serviceRuns; i++ {
		srv, err := f.launch(e)
		if err != nil {
			return err
		}
		part, err := drive(e, srv, f.mix, true, f.jobRef, serviceWarm, window/serviceRuns)
		var p float64
		if err == nil {
			// The daemons' memory is their peak: the median over the
			// window follows how each daemon happens to run its jobs (see
			// below) and moved between 17.7 and 21.6 MB across runs, while
			// the largest peak of the daemons stayed within 31.3–35.8 MB.
			p, err = peakRSSMB(srv.pid)
		}
		srv.stop()
		if err != nil {
			return err
		}
		after := referenceMs(1)
		for _, ms := range part.schedMs {
			rel = append(rel, ms/((before+after)/2))
		}
		fmt.Printf("daemon %d: schedule median %.3f ms over %d requests; %d jobs, median run %.1f ms; reference loop %.1f ms\n",
			i, Median(part.schedMs), len(part.schedMs), len(part.jobRun), Median(part.jobRun), (before+after)/2)
		before = after
		ss.add(part)
		peak = max(peak, p)
	}
	plan, err := jobSpec(e.Seed).Plan()
	if err != nil {
		return err
	}
	if len(ss.jobS) == 0 {
		return fmt.Errorf("no job finished inside the %s window", window)
	}
	// The job stream's own figures are printed but not bounded: a fresh
	// daemon runs this job in either about 135 ms or about 270 ms and
	// mostly keeps that speed for its lifetime, about one daemon in three
	// the slower — a bimodality of the service that the bounds of a
	// regression check cannot absorb.
	s := e.setE2E(f.setups, ss.schedMs, rel, peak)
	fmt.Printf("peak_rss_mb = %.2f MB (the largest of the %d daemons)\n", peak, serviceRuns)
	// Summarize sorted ss.schedMs in place.
	fmt.Printf("schedule latency ms:")
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.97, 0.98, 0.99, 0.995} {
		fmt.Printf(" p%g=%.2f", 100*q, Quantile(ss.schedMs, q))
	}
	fmt.Println()
	fmt.Printf("schedule_p50_ms = %.3f; schedule_p%g_ms = %.3f over the window (%d requests at %d/s, %d beyond)\n",
		s.P50, 100*s.TailQ, s.Tail, s.N, scheduleRate, s.Beyond)
	fmt.Printf("job_p50_s = %.4f (%d jobs, %d trial runs each; median wait %.1f ms, run %.1f ms; seen done by the client after %.4f s)\n",
		Median(ss.jobS), len(ss.jobS), plan.TrialRuns(), Median(ss.jobWait), Median(ss.jobRun), Median(ss.jobSeen))
	fmt.Printf("loadgen.max_late_ms = %.3f; end-of-run backlog = %d requests; registry hit ratio = %.4f\n",
		float64(ss.maxLate)/1e6, ss.backlog, float64(ss.hits)/float64(len(ss.schedMs)))
	fmt.Printf("on-time responses = %.1f/s (%.1f%% within %s of their due time)\n",
		float64(ss.onTime)/ss.window.Seconds(), 100*float64(ss.onTime)/float64(len(ss.schedMs)), scheduleLimit)
	return nil
}

// traceServiceMixed times the mixed traffic on one daemon untraced for half
// the window, then traced for the other half, and measures the service
// layers.
func traceServiceMixed(e *Env) error {
	f, err := newServiceFixture(e)
	if err != nil {
		return err
	}
	srv, err := f.launch(e)
	if err != nil {
		return err
	}
	defer srv.stop()
	half := time.Duration(e.Seconds * float64(time.Second) / 2)
	var plain *session
	err = e.untraced(func() (err error) {
		plain, err = drive(e, srv, f.mix, true, f.jobRef, serviceWarm, half)
		return err
	})
	if err != nil {
		return err
	}
	traced, err := serviceLayers(e, f, srv, half)
	if err != nil {
		return err
	}
	// The traced units are the window's requests, due to response, and its
	// jobs, submit to seen done.
	e.setOverhead(Median(plain.schedMs), Median(traced.schedMs), Sum(traced.schedMs)+1000*Sum(traced.jobSeen))
	return nil
}

// serviceLadder launches a daemon and measures the service layers for a
// short window, for traced runs of the other workloads.
func serviceLadder(e *Env) error {
	f, err := newServiceFixture(e)
	if err != nil {
		return err
	}
	srv, err := f.launch(e)
	if err != nil {
		return err
	}
	defer srv.stop()
	_, err = serviceLayers(e, f, srv, 4*time.Second)
	return err
}

// serviceLayers drives traced mixed traffic for window and records the
// service, store and loadgen metrics; then it measures the schedule path
// with no jobs running: in process, and over HTTP with the daemon's CPU.
func serviceLayers(e *Env, f *serviceFixture, srv *server, window time.Duration) (*session, error) {
	before, err := srv.scrape(storeMetrics...)
	if err != nil {
		return nil, err
	}
	ss, err := drive(e, srv, f.mix, true, f.jobRef, time.Second, window)
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(storeMetrics...)
	if err != nil {
		return nil, err
	}
	if len(ss.jobS) == 0 {
		return nil, fmt.Errorf("no job finished inside the %s traced window", window)
	}
	// The counters cover every job of the drive, warm-up included.
	jobs := float64(ss.jobsRun)
	delta := func(name string) float64 { return (after[name] - before[name]) / jobs }
	e.Set("store.fsyncs_per_job", delta("repro_store_fsync_seconds_count"), "count")
	e.Set("store.fsync_ms_per_job", 1000*delta("repro_store_fsync_seconds_sum"), "ms")
	e.Set("store.wal_bytes_per_job", delta("repro_store_wal_bytes_total"), "bytes")
	e.Set("store.frames_per_job", delta("repro_store_frames_total"), "count")
	e.Set("service.job_wait_ms", Median(ss.jobWait), "ms")
	e.Set("service.job_run_ms", Median(ss.jobRun), "ms")
	e.Set("service.registry_hit_ratio", float64(ss.hits)/float64(len(ss.schedMs)), "ratio")
	e.Set("loadgen.schedule_p99_ms", Quantile(sortedCopy(ss.schedMs), 0.99), "ms")
	e.Set("loadgen.max_late_ms", float64(ss.maxLate)/1e6, "ms")
	e.Set("loadgen.backlog", float64(ss.backlog), "count")

	// The schedule path alone: in process on the same mix, then over HTTP
	// with no job running, where the daemon's CPU is all request work.
	us, _, err := measure(func() (int, error) {
		for _, r := range f.mix {
			if _, err := f.svc.Schedule(context.Background(), r.req); err != nil {
				return 0, err
			}
		}
		return len(f.mix), nil
	})
	if err != nil {
		return nil, err
	}
	e.Set("service.schedule_inproc_us", us, "us")
	cpu0, err := cpuSeconds(srv.pid)
	if err != nil {
		return nil, err
	}
	var ro *session
	err = e.untraced(func() (err error) {
		ro, err = drive(e, srv, f.mix, false, nil, 500*time.Millisecond, 2*time.Second)
		return err
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(srv.pid)
	if err != nil {
		return nil, err
	}
	e.Set("service.server_cpu_ms_per_req", 1000*(cpu1-cpu0)/float64(ro.sent), "ms")
	e.Set("service.http_share", 1-(us/1000)/Median(ro.httpMs), "ratio")
	return ss, nil
}
