package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeKinds is a one-row job-kind table for manager tests. A job's payload
// is a JSON string, its name; the name prepares into cells cells, cell i's
// frame is run(ctx, name, i, prog), and the merge concatenates the frames
// in order. The row observes no duration histogram, so manager tests leave
// the service's per-family series alone.
func fakeKinds(cells int, run func(ctx context.Context, name string, i int, prog *obs.Progress) (string, error)) *kindTable {
	return newKindTable(jobKind{prefix: "", route: "/v1/jobs", noun: "job",
		prepare: func(payload []byte) (*cellJob, error) {
			var name string
			if err := json.Unmarshal(payload, &name); err != nil {
				return nil, err
			}
			return &cellJob{kind: name, payload: payload, cells: cells,
				run: func(ctx context.Context, i int, prog *obs.Progress) ([]byte, error) {
					out, err := run(ctx, name, i, prog)
					return []byte(out), err
				},
				merge: func(frames [][]byte) (string, error) { return string(bytes.Join(frames, nil)), nil },
			}, nil
		}})
}

// namePayload is a fake job's payload.
func namePayload(name string) []byte { return []byte(strconv.Quote(name)) }

// submitNamed submits a fake job kinded and named name.
func submitNamed(m *JobManager, name string) (JobStatus, error) {
	return m.Submit(name, namePayload(name))
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, m *JobManager, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, s := range want {
			if status.State == s {
				return status
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want one of %v", id, status.State, want)
	return JobStatus{}
}

func TestJobLifecycle(t *testing.T) {
	m := newJobManager(2, 4, 8, fakeKinds(1, func(ctx context.Context, name string, _ int, _ *obs.Progress) (string, error) {
		if name == "fail" {
			return "", errors.New("boom")
		}
		return "hello", nil
	}))
	defer m.Shutdown(context.Background())

	status, err := submitNamed(m, "greet")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobQueued {
		t.Fatalf("initial state = %s, want queued", status.State)
	}
	done := waitState(t, m, status.ID, JobDone)
	if done.Output != "hello" {
		t.Errorf("output = %q, want hello", done.Output)
	}
	if done.Error != "" {
		t.Errorf("unexpected error %q", done.Error)
	}

	status, err = submitNamed(m, "fail")
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, status.ID, JobFailed)
	if failed.Error != "boom" {
		t.Errorf("error = %q, want boom", failed.Error)
	}
}

func TestJobQueueBounded(t *testing.T) {
	block := make(chan struct{})
	m := newJobManager(1, 2, 8, fakeKinds(1, func(ctx context.Context, _ string, _ int, _ *obs.Progress) (string, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}))
	defer m.Shutdown(context.Background())

	// One running + two queued fill the pool and the queue.
	var ids []string
	for i := 0; i < 3; i++ {
		status, err := submitNamed(m, "block")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, status.ID)
		if i == 0 {
			waitState(t, m, status.ID, JobRunning)
		}
	}
	if _, err := submitNamed(m, "overflow"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	close(block)
	for _, id := range ids {
		waitState(t, m, id, JobDone)
	}
}

func TestShutdownCancelsQueuedAndRunningJobs(t *testing.T) {
	m := newJobManager(1, 4, 8, fakeKinds(1, func(ctx context.Context, name string, _ int, _ *obs.Progress) (string, error) {
		if name == "running" {
			<-ctx.Done() // honours cancellation, like the studies do
		}
		return "should not run", ctx.Err()
	}))

	running, err := submitNamed(m, "running")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, JobRunning)

	var queued []string
	for i := 0; i < 3; i++ {
		status, err := submitNamed(m, "queued")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, status.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := waitState(t, m, running.ID, JobCancelled); got.Error == "" {
		t.Errorf("running job cancelled without error message")
	}
	for _, id := range queued {
		status, ok := m.Get(id)
		if !ok {
			t.Fatalf("queued job %s evicted", id)
		}
		if status.State != JobCancelled {
			t.Errorf("queued job %s state = %s, want cancelled", id, status.State)
		}
		if status.Output != "" {
			t.Errorf("queued job %s ran: output %q", id, status.Output)
		}
	}

	if _, err := submitNamed(m, "late"); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

func TestJobRetentionEvictsOldest(t *testing.T) {
	m := newJobManager(1, 8, 2, fakeKinds(1, func(context.Context, string, int, *obs.Progress) (string, error) { return "ok", nil }))
	defer m.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		status, err := submitNamed(m, "quick")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, status.ID)
		waitState(t, m, status.ID, JobDone) // serialise so eviction order is stable
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(list), list)
	}
	if list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Errorf("retained %s, %s; want the two most recent %s, %s",
			list[0].ID, list[1].ID, ids[3], ids[4])
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Errorf("oldest job %s still retrievable", ids[0])
	}
}

// TestPanickingCellFailsJob pins the in-memory backend's panic recovery: a
// cell that panics fails its job with the panic and the stack in the
// error, and the same worker goes on to run the next job.
func TestPanickingCellFailsJob(t *testing.T) {
	m := newJobManager(1, 4, 8, fakeKinds(1, func(_ context.Context, name string, _ int, _ *obs.Progress) (string, error) {
		if name == "poison" {
			panic("poisoned cell")
		}
		return "survived", nil
	}))
	defer m.Shutdown(context.Background())

	poison, err := submitNamed(m, "poison")
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, poison.ID, JobFailed)
	if !strings.Contains(failed.Error, "poisoned cell") || !strings.Contains(failed.Error, "goroutine") {
		t.Errorf("panic error = %q, want the panic value and a stack", failed.Error)
	}
	next, err := submitNamed(m, "next")
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, next.ID, JobDone); done.Output != "survived" {
		t.Errorf("job after the panic: output = %q, want survived", done.Output)
	}
}
