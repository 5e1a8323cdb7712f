package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSpecTracePathsRejected pins the trust boundary of the workload axis:
// a campaign, robustness or arrival spec whose trace names a server-side
// path is a 400 before any file is read, and the response never carries
// the file's content.
func TestSpecTracePathsRejected(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{"workloads":{"traces":[{"path":"/etc/passwd"}]}}`
	for _, route := range []string{"/v1/campaigns", "/v1/robustness", "/v1/arrivals"} {
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", route, resp.StatusCode, got)
		}
		if strings.Contains(string(got), "root:") {
			t.Errorf("%s: response leaks the file: %s", route, got)
		}
		if !strings.Contains(string(got), `inline \"dot\" traces only`) {
			t.Errorf("%s: response does not name the rule: %s", route, got)
		}
	}
	if jobs := svc.Jobs().List(); len(jobs) != 0 {
		t.Errorf("rejected specs queued jobs: %+v", jobs)
	}
}

// TestOversizedBodyRejected pins the request-body cap: past maxBodyBytes a
// job submission or a schedule request answers 413, not a decode error.
func TestOversizedBodyRejected(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	huge := `{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []string{"/v1/campaigns", "/v1/schedule"} {
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", route, resp.StatusCode)
		}
	}
}

// TestArrivalJobDurationSeries pins the job-duration histogram labels: an
// arrival job is observed under kind="arrival" and moves no other family's
// series.
func TestArrivalJobDurationSeries(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close(context.Background())

	series := map[string]func() uint64{
		"study":    jobDurStudy.Count,
		"campaign": jobDurCampaign.Count,
		"robust":   jobDurRobust.Count,
		"arrival":  jobDurArrival.Count,
	}
	before := map[string]uint64{}
	for kind, count := range series {
		before[kind] = count()
	}
	status, err := svc.SubmitArrival(onlineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, svc.Jobs(), status.ID, JobDone, JobFailed); final.State != JobDone {
		t.Fatalf("arrival job ended %s: %s", final.State, final.Error)
	}
	for kind, count := range series {
		want := before[kind]
		if kind == "arrival" {
			want++
		}
		if got := count(); got != want {
			t.Errorf(`repro_job_duration_seconds{kind=%q} count = %d, want %d`, kind, got, want)
		}
	}
}
