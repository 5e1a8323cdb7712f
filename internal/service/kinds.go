package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"

	"repro/internal/arrival"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/robust"
)

// The job-kind table. Every asynchronous job — a study, a campaign, a
// robustness study, an arrival scenario — is one cell job: its kind's
// prepare decodes and normalizes a JSON payload and resolves it into a
// fixed number of independent cells plus a merge that folds the cells'
// result frames, in cell order, into the rendered report. The in-process
// path (Service.Run*, the in-memory job manager) runs the cells in order;
// the durable manager spreads them over every replica on the store. Either
// way the report is the same bytes. Adding a job kind costs one row here.

// Job duration histograms, one per row: the family set is closed, so label
// cardinality cannot grow with user-chosen job names.
var (
	jobDurStudy = obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", "study"))
	jobDurCampaign = obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", "campaign"))
	jobDurRobust = obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", "robust"))
	jobDurArrival = obs.Default.Histogram("repro_job_duration_seconds",
		"Job wall-clock duration, by job family.", obs.FitBuckets, obs.L("kind", "arrival"))
)

// Kind prefixes mark each family's jobs: a job's kind is the prefix, or
// "<prefix>:<spec name>". Study jobs are kinded by their study name and own
// the empty prefix, which matches every kind — so the study row comes last.
const (
	campaignKindPrefix = "campaign"
	robustKindPrefix   = "robust"
	arrivalKindPrefix  = "arrival"
	studyKindPrefix    = ""
)

// kindRows is the service's job-kind table.
func (s *Service) kindRows() []jobKind {
	return []jobKind{
		{prefix: campaignKindPrefix, route: "/v1/campaigns", noun: "campaign", duration: jobDurCampaign, prepare: s.prepareCampaign},
		{prefix: robustKindPrefix, route: "/v1/robustness", noun: "robustness study", duration: jobDurRobust, prepare: s.prepareRobustness},
		{prefix: arrivalKindPrefix, route: "/v1/arrivals", noun: "arrival scenario", duration: jobDurArrival, prepare: s.prepareArrival},
		{prefix: studyKindPrefix, route: "/v1/jobs", noun: "job", duration: jobDurStudy, prepare: s.prepareStudy},
	}
}

// jobKind is one row of the table.
type jobKind struct {
	// prefix selects the row's jobs by kind (see the kind-prefix constants).
	prefix string
	// route is the HTTP collection the row's jobs are submitted to, listed
	// under and polled at; noun names one of them in 404s.
	route, noun string
	// duration observes every finished job of the row.
	duration *obs.Histogram
	// prepare decodes, validates and normalizes a payload and resolves it
	// into a cell job. Deterministic: every replica preparing the same
	// payload gets the same cells.
	prepare func(payload []byte) (*cellJob, error)
}

// owns reports whether a job kind belongs to the row.
func (k *jobKind) owns(kind string) bool { return strings.HasPrefix(kind, k.prefix) }

// cellJob is one prepared job.
type cellJob struct {
	// kind is the job's kind; payload its normalized spec, the record the
	// job managers store and every replica prepares again.
	kind    string
	payload []byte
	// cells is the number of independent work-units.
	cells int
	// run executes one cell and returns its result frame; RunCell wraps it.
	run func(ctx context.Context, i int, prog *obs.Progress) ([]byte, error)
	// merge folds every cell's frame, in cell order, into the report.
	merge func(frames [][]byte) (string, error)
}

// RunCell executes cell i: the one place job work runs on every path, so
// the one place a panic is recovered — it becomes the cell's error, stack
// included, and the replica lives on. Trial-level progress flows through
// prog (nil is fine).
func (j *cellJob) RunCell(ctx context.Context, i int, prog *obs.Progress) (frame []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			frame, err = nil, fmt.Errorf("service: %s cell %d panicked: %v\n%s", j.kind, i, r, debug.Stack())
		}
	}()
	return j.run(ctx, i, prog)
}

// runInOrder executes a cell job in process: every cell in order, then the
// merge, with cell counts reported through prog.
func runInOrder(ctx context.Context, j *cellJob, prog *obs.Progress) (string, error) {
	prog.AddCellsTotal(int64(j.cells))
	frames := make([][]byte, j.cells)
	for i := range frames {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		var err error
		if frames[i], err = j.RunCell(ctx, i, prog); err != nil {
			return "", err
		}
		prog.AddCellsDone(1)
	}
	return j.merge(frames)
}

// kindTable resolves job kinds to rows and caches prepared jobs, so a
// replica executing many cells of one job prepares it once.
type kindTable struct {
	rows []jobKind

	mu    sync.Mutex
	cache map[string]*preparedEntry
	order []string
}

type preparedEntry struct {
	once sync.Once
	job  *cellJob
	err  error
}

// preparedCacheCap bounds the prepared-job cache; entries beyond it are
// evicted oldest-first. Replicas rarely interleave more than a few jobs,
// and a miss only costs preparing again.
const preparedCacheCap = 8

func newKindTable(rows ...jobKind) *kindTable {
	return &kindTable{rows: rows, cache: make(map[string]*preparedEntry)}
}

// lookup returns the first row owning kind.
func (t *kindTable) lookup(kind string) (*jobKind, error) {
	for i := range t.rows {
		if t.rows[i].owns(kind) {
			return &t.rows[i], nil
		}
	}
	return nil, fmt.Errorf("service: unknown job kind %q", kind)
}

// row returns the row with exactly the given prefix.
func (t *kindTable) row(prefix string) *jobKind {
	for i := range t.rows {
		if t.rows[i].prefix == prefix {
			return &t.rows[i]
		}
	}
	panic("service: no job-kind row for prefix " + prefix)
}

// observe records a finished job's wall-clock seconds under its row.
func (t *kindTable) observe(kind string, seconds float64) {
	if k, err := t.lookup(kind); err == nil && k.duration != nil {
		k.duration.Observe(seconds)
	}
}

// prepare resolves a stored (kind, payload) into its cell job, caching the
// resolution (errors included).
func (t *kindTable) prepare(kind string, payload []byte) (*cellJob, error) {
	key := kind + "\x00" + string(payload)
	t.mu.Lock()
	e, ok := t.cache[key]
	if !ok {
		e = &preparedEntry{}
		t.cache[key] = e
		t.order = append(t.order, key)
		for len(t.order) > preparedCacheCap {
			delete(t.cache, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.mu.Unlock()
	e.once.Do(func() {
		k, err := t.lookup(kind)
		if err != nil {
			e.err = err
			return
		}
		e.job, e.err = k.prepare(payload)
	})
	return e.job, e.err
}

// submit validates a typed submission through its row's prepare and queues
// it.
func (s *Service) submit(prefix string, v any) (JobStatus, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return JobStatus{}, badRequest{err}
	}
	return s.submitPayload(s.kinds.row(prefix), payload)
}

// submitPayload prepares a payload — the row's whole rejection surface, so
// invalid specs are bad requests before anything is fitted or queued — and
// queues the normalized payload.
func (s *Service) submitPayload(k *jobKind, payload []byte) (JobStatus, error) {
	job, err := k.prepare(payload)
	if err != nil {
		return JobStatus{}, badRequest{err}
	}
	return s.jobs.Submit(job.kind, job.payload)
}

// run executes a typed submission synchronously and returns its report.
func (s *Service) run(ctx context.Context, prefix string, v any) (string, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	job, err := s.kinds.row(prefix).prepare(payload)
	if err != nil {
		return "", err
	}
	return runInOrder(ctx, job, nil)
}

// SubmitStudy queues a study run and returns its job status.
func (s *Service) SubmitStudy(req StudyRequest) (JobStatus, error) {
	return s.submit(studyKindPrefix, req)
}

// RunStudy executes one study synchronously and returns the rendered
// report, byte-identical to cmd/mixedsim's output for the same seeds.
func (s *Service) RunStudy(ctx context.Context, req StudyRequest) (string, error) {
	return s.run(ctx, studyKindPrefix, req)
}

// SubmitCampaign validates a declarative what-if sweep and queues it as an
// async job (kind "campaign" or "campaign:<name>"). Invalid specs — unknown
// axis values, empty grids, grids beyond the campaign limits — are rejected
// up front as bad requests, before any fitting campaign runs.
func (s *Service) SubmitCampaign(spec campaign.Spec) (JobStatus, error) {
	return s.submit(campaignKindPrefix, spec)
}

// RunCampaign executes a campaign synchronously against the service's
// fit-once registry and returns the rendered report.
func (s *Service) RunCampaign(ctx context.Context, spec campaign.Spec) (string, error) {
	return s.run(ctx, campaignKindPrefix, spec)
}

// SubmitRobustness validates a Monte Carlo robustness study and queues it
// as an async job (kind "robust" or "robust:<name>"), rejecting invalid
// specs and oversized trial budgets up front as bad requests.
func (s *Service) SubmitRobustness(spec robust.Spec) (JobStatus, error) {
	return s.submit(robustKindPrefix, spec)
}

// RunRobustness executes a robustness study synchronously and returns the
// rendered report: the base campaign (byte-identical to submitting it as a
// plain campaign) followed by the winner-stability sections.
func (s *Service) RunRobustness(ctx context.Context, spec robust.Spec) (string, error) {
	return s.run(ctx, robustKindPrefix, spec)
}

// SubmitArrival validates an online-arrival scenario and queues it as an
// async job (kind "arrival" or "arrival:<name>"), rejecting invalid specs —
// unknown axes, bad processes, bad partition geometry — up front as bad
// requests.
func (s *Service) SubmitArrival(spec arrival.Spec) (JobStatus, error) {
	return s.submit(arrivalKindPrefix, spec)
}

// RunArrival executes an online-arrival scenario synchronously and returns
// the rendered report.
func (s *Service) RunArrival(ctx context.Context, spec arrival.Spec) (string, error) {
	return s.run(ctx, arrivalKindPrefix, spec)
}

// decodeSpec decodes a job payload. Workload traces must travel inline as
// "dot": a trace naming a path would have the service read a file of its
// own host on the client's behalf, so such a spec is refused before any
// file is touched.
func decodeSpec(payload []byte, v any, workloads *campaign.WorkloadAxis) error {
	if err := json.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return err
	}
	if workloads != nil {
		for i, tr := range workloads.Traces {
			if tr.Path != "" {
				return fmt.Errorf(`service: workloads.traces[%d] names a path; the service accepts inline "dot" traces only`, i)
			}
		}
	}
	return nil
}

// kindName is a family prefix qualified by the spec's name, if any.
func kindName(prefix, name string) string {
	if name == "" {
		return prefix
	}
	return prefix + ":" + name
}

// report is what the engines' results render through.
type report interface{ Write(io.Writer) }

// engineJob adapts an engine's per-cell API — cell values C, their frame
// codec, and a merge into a rendered result — to a cell job.
func engineJob[C any, R report](kind string, spec any, cells int,
	run func(ctx context.Context, i int, prog *obs.Progress) (C, error),
	encode func(C) ([]byte, error), decode func([]byte) (C, error),
	merge func([]C) (R, error)) (*cellJob, error) {

	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return &cellJob{
		kind:    kind,
		payload: payload,
		cells:   cells,
		run: func(ctx context.Context, i int, prog *obs.Progress) ([]byte, error) {
			c, err := run(ctx, i, prog)
			if err != nil {
				return nil, err
			}
			return encode(c)
		},
		merge: func(frames [][]byte) (string, error) {
			cs := make([]C, len(frames))
			for i, frame := range frames {
				var err error
				if cs[i], err = decode(frame); err != nil {
					return "", fmt.Errorf("service: cell %d: %w", i, err)
				}
			}
			res, err := merge(cs)
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			res.Write(&buf)
			return buf.String(), nil
		},
	}, nil
}

// prepareStudy: a study is a one-cell job whose frame is the report.
func (s *Service) prepareStudy(payload []byte) (*cellJob, error) {
	var req StudyRequest
	if err := decodeSpec(payload, &req, nil); err != nil {
		return nil, err
	}
	if !validStudy(req.Study) {
		return nil, fmt.Errorf("service: unknown study %q (want one of %v)", req.Study, StudyNames())
	}
	if req.Environment == "" {
		req.Environment = "bayreuth"
	}
	if _, err := s.registry.Environment(req.Environment); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &cellJob{
		kind:    req.Study,
		payload: payload,
		cells:   1,
		run: func(ctx context.Context, _ int, _ *obs.Progress) ([]byte, error) {
			var buf bytes.Buffer
			err := s.renderStudy(ctx, req, &buf)
			return buf.Bytes(), err
		},
		merge: func(frames [][]byte) (string, error) { return string(frames[0]), nil },
	}, nil
}

// normalizeCampaign fills a campaign spec's seed defaults from the service
// options, so campaigns, schedule requests and study jobs all share the
// same fitted models by default. An axis that already names workloads —
// suite seeds, traces or shapes — is left alone: the suite default only
// applies to a fully empty axis.
func (s *Service) normalizeCampaign(spec campaign.Spec) campaign.Spec {
	if spec.Seed == 0 {
		spec.Seed = s.opts.Seed
	}
	if spec.Workloads.IsEmpty() {
		spec.Workloads.SuiteSeeds = []int64{s.opts.SuiteSeed}
	}
	return spec
}

func (s *Service) prepareCampaign(payload []byte) (*cellJob, error) {
	var spec campaign.Spec
	if err := decodeSpec(payload, &spec, &spec.Workloads); err != nil {
		return nil, err
	}
	spec = s.normalizeCampaign(spec)
	p, err := s.campaigns.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return engineJob(kindName(campaignKindPrefix, spec.Name), spec, p.NumCells(),
		func(ctx context.Context, i int, _ *obs.Progress) (campaign.CellScore, error) {
			return s.campaigns.RunCellIndex(ctx, p, i)
		},
		campaign.EncodeCell, campaign.DecodeCell,
		func(cells []campaign.CellScore) (*campaign.Result, error) { return campaign.Merge(p, cells) })
}

// prepareRobustness normalizes the embedded campaign exactly like a plain
// campaign submission, so a robustness study's base grid shares its fitted
// models with every other consumer of the registry.
func (s *Service) prepareRobustness(payload []byte) (*cellJob, error) {
	var spec robust.Spec
	if err := decodeSpec(payload, &spec, &spec.Workloads); err != nil {
		return nil, err
	}
	spec.Spec = s.normalizeCampaign(spec.Spec)
	p, err := s.robusts.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return engineJob(kindName(robustKindPrefix, spec.Name), spec, p.NumCells(),
		func(ctx context.Context, i int, prog *obs.Progress) (robust.CellResult, error) {
			return s.robusts.RunCellIndex(ctx, p, i, prog)
		},
		robust.EncodeCell, robust.DecodeCell,
		func(cells []robust.CellResult) (*robust.Result, error) { return robust.Merge(p, cells) })
}

// prepareArrival fills the noise seed and — only for a fully empty
// workload axis — the Table I suite seed, exactly as for campaigns.
func (s *Service) prepareArrival(payload []byte) (*cellJob, error) {
	var spec arrival.Spec
	if err := decodeSpec(payload, &spec, &spec.Workloads); err != nil {
		return nil, err
	}
	if spec.Seed == 0 {
		spec.Seed = s.opts.Seed
	}
	if spec.Workloads.IsEmpty() {
		spec.Workloads.SuiteSeeds = []int64{s.opts.SuiteSeed}
	}
	p, err := s.arrivals.Prepare(spec)
	if err != nil {
		return nil, err
	}
	return engineJob(kindName(arrivalKindPrefix, spec.Name), spec, p.NumCells(),
		func(ctx context.Context, i int, _ *obs.Progress) (arrival.CellJobs, error) {
			return s.arrivals.RunCellIndex(ctx, p, i)
		},
		arrival.EncodeCell, arrival.DecodeCell,
		func(cells []arrival.CellJobs) (*arrival.Result, error) { return arrival.Merge(p, cells) })
}
