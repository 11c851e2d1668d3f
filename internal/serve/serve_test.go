package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// testServer spins up a service over httptest with tight limits suitable
// for unit tests.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

// benchCSV renders a generated benchmark's dirty dataset as CSV bytes.
func benchCSV(t *testing.T, ds *table.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postCSV submits a CSV body and decodes the response envelope.
func postCSV(t *testing.T, url string, body []byte) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp
}

// jobStatus fetches one job's lifecycle status.
func jobStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := jobStatus(t, base, id)
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func getResult(t *testing.T, base, id string) JobResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("result status %d: %s", resp.StatusCode, b)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestServiceMatchesDetectorBitIdentical is the determinism e2e: for
// Workers in {1, 8}, concurrent service jobs over the same upload must
// return verdicts AND float64 score bits identical to a direct
// Detector.DetectOn with the same seed — the same contract cmd/zeroed runs
// under, so service == CLI.
func TestServiceMatchesDetectorBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e determinism pin is not -short")
	}
	b := datasets.Hospital(200, 5)
	csv := benchCSV(t, b.Dirty)
	const seed = 9

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Reference run: exactly what cmd/zeroed computes. The dataset is
			// re-parsed from the same CSV bytes the service receives, so both
			// sides see identical dictionaries.
			ref, err := table.Read("upload", table.FormatCSV, bytes.NewReader(csv))
			if err != nil {
				t.Fatal(err)
			}
			want, err := zeroed.New(zeroed.Config{Seed: seed, Workers: workers}).DetectOn(context.Background(), nil, ref)
			if err != nil {
				t.Fatal(err)
			}

			ts, _ := testServer(t, Config{Workers: workers, MaxConcurrentJobs: 3})
			// Concurrent identical submissions: every job must match the
			// reference bit-for-bit regardless of scheduling.
			const jobs = 3
			ids := make([]string, jobs)
			var wg sync.WaitGroup
			for i := 0; i < jobs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, resp := postCSV(t, ts.URL+fmt.Sprintf("/v1/jobs?seed=%d", seed), csv)
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("submit %d: status %d", i, resp.StatusCode)
						return
					}
					ids[i] = st.ID
				}(i)
			}
			wg.Wait()
			for _, id := range ids {
				if id == "" {
					t.Fatal("a submission failed")
				}
				st := waitDone(t, ts.URL, id)
				if st.State != JobDone {
					t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
				}
				jr := getResult(t, ts.URL, id)
				if len(jr.Pred) != len(want.Pred) {
					t.Fatalf("pred rows = %d, want %d", len(jr.Pred), len(want.Pred))
				}
				for i := range want.Pred {
					for j := range want.Pred[i] {
						if jr.Pred[i][j] != want.Pred[i][j] {
							t.Fatalf("job %s verdict (%d,%d) = %v, want %v", id, i, j, jr.Pred[i][j], want.Pred[i][j])
						}
						if jr.Scores[i][j] != want.Scores[i][j] {
							t.Fatalf("job %s score (%d,%d) = %v, want %v (bit mismatch)", id, i, j, jr.Scores[i][j], want.Scores[i][j])
						}
					}
				}
			}
		})
	}
}

// TestAdversarialUploads pins the boundary-validation contract: every
// malformed upload gets a structured 4xx, never a panic or a 500.
func TestAdversarialUploads(t *testing.T) {
	ts, _ := testServer(t, Config{MaxRows: 50, MaxCols: 4, MaxUploadBytes: 4096})
	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"empty body", "/v1/jobs", "", http.StatusBadRequest},
		{"header only", "/v1/jobs", "a,b,c\n", http.StatusBadRequest},
		{"ragged row", "/v1/jobs", "a,b\n1,2\n3\n", http.StatusBadRequest},
		{"bare quote", "/v1/jobs", "a,b\n\"1,2\n", http.StatusBadRequest},
		{"too many columns", "/v1/jobs", "a,b,c,d,e\n1,2,3,4,5\n", http.StatusBadRequest},
		{"too many rows", "/v1/jobs", "a\n" + strings.Repeat("1\n", 51), http.StatusBadRequest},
		{"oversized body", "/v1/jobs", "a,b\n" + strings.Repeat(strings.Repeat("x", 200)+",y\n", 30), http.StatusRequestEntityTooLarge},
		{"bad seed", "/v1/jobs?seed=abc", "a,b\n1,2\n", http.StatusBadRequest},
		{"bad label rate", "/v1/jobs?label_rate=2", "a,b\n1,2\n", http.StatusBadRequest},
		{"bad threshold", "/v1/jobs?threshold=1.5", "a,b\n1,2\n", http.StatusBadRequest},
		{"unknown model", "/v1/jobs?model=nope", "a,b\n1,2\n", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "text/csv", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, b)
			}
			var env map[string]apiError
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("error body is not the structured envelope: %v", err)
			}
			if env["error"].Code == "" || env["error"].Message == "" {
				t.Fatalf("error envelope missing code/message: %+v", env)
			}
		})
	}
}

// TestDegenerateDatasetsServeCleanly covers inputs that are well-formed
// CSV but degenerate for the pipeline: they must finish as done or failed
// with an error message — the process must not crash and the job must not
// wedge.
func TestDegenerateDatasetsServeCleanly(t *testing.T) {
	ts, _ := testServer(t, Config{MaxConcurrentJobs: 2})
	cases := []struct {
		name string
		csv  string
	}{
		{"single row", "a,b\n1,2\n"},
		{"single column single value", "a\nx\nx\nx\nx\n"},
		{"all identical rows", "a,b\n" + strings.Repeat("same,same\n", 30)},
		{"single cell", "a\nv\n"},
		{"empty strings", "a,b\n" + strings.Repeat(",\n", 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, resp := postCSV(t, ts.URL+"/v1/jobs?seed=3", []byte(tc.csv))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d", resp.StatusCode)
			}
			end := waitDone(t, ts.URL, st.ID)
			if end.State != JobDone && end.State != JobFailed {
				t.Fatalf("state = %s, want done or failed", end.State)
			}
			if end.State == JobFailed && end.Error == "" {
				t.Fatal("failed job must carry an error message")
			}
		})
	}
}

// TestCancelRunningJob exercises DELETE-as-cancel on a job big enough to
// still be in flight.
func TestCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation e2e is not -short")
	}
	b := datasets.Tax(4000, 3)
	csv := benchCSV(t, b.Dirty)
	ts, _ := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1})

	st, resp := postCSV(t, ts.URL+"/v1/jobs?seed=1", csv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	end := waitDone(t, ts.URL, st.ID)
	if end.State != JobCanceled {
		t.Fatalf("state after DELETE = %s, want canceled", end.State)
	}
	// The result endpoint reports the cancellation as a structured conflict.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result status after cancel = %d, want 409", rresp.StatusCode)
	}
}

// TestQueueBackpressure pins the 429 admission contract with a full queue.
func TestQueueBackpressure(t *testing.T) {
	ts, svc := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1, MaxQueuedJobs: 1})
	// Occupy the single runner long enough to observe the full queue.
	big := benchCSV(t, datasets.Hospital(300, 2).Dirty)
	first, resp := postCSV(t, ts.URL+"/v1/jobs", big)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// Fill the queue (the runner may have popped the first job already, so
	// allow one extra accepted submission before demanding a 429).
	small := []byte("a,b\n1,2\n3,4\n")
	saw429 := false
	for i := 0; i < 4 && !saw429; i++ {
		_, r := postCSV(t, ts.URL+"/v1/jobs", small)
		if r.StatusCode == http.StatusTooManyRequests {
			saw429 = true
		} else if r.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: unexpected status %d", i, r.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("queue never pushed back with 429")
	}
	_ = svc
	waitDone(t, ts.URL, first.ID)
}

// TestCancelQueuedFreesSlot pins that DELETE on queued jobs releases their
// admission slots immediately: after canceling the waiting jobs, a new
// submission must be accepted even though the runner is still busy.
func TestCancelQueuedFreesSlot(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1, MaxQueuedJobs: 2})
	big := benchCSV(t, datasets.Hospital(300, 2).Dirty)
	small := []byte("a,b\n1,2\n3,4\n")

	first, resp := postCSV(t, ts.URL+"/v1/jobs", big) // occupies the runner
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// Fill the queue to capacity, tolerating the race where the runner has
	// not yet popped the first job.
	var queued []string
	for len(queued) < 2 {
		st, r := postCSV(t, ts.URL+"/v1/jobs", small)
		if r.StatusCode == http.StatusTooManyRequests {
			break
		}
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit: %d", r.StatusCode)
		}
		queued = append(queued, st.ID)
	}
	// Cancel every waiting job: their slots must free up instantly.
	for _, id := range queued {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	_, r := postCSV(t, ts.URL+"/v1/jobs", small)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after canceling queued jobs = %d, want 202 (slots must free immediately)", r.StatusCode)
	}
	waitDone(t, ts.URL, first.ID)
}

// TestDeleteDoesNotLeakOrder pins that DELETEing finished jobs shrinks the
// retained-job bookkeeping instead of accumulating stale ids forever.
func TestDeleteDoesNotLeakOrder(t *testing.T) {
	ts, svc := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1})
	small := []byte("a,b\n1,2\n3,4\n")
	for i := 0; i < 5; i++ {
		st, resp := postCSV(t, ts.URL+"/v1/jobs", small)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		waitDone(t, ts.URL, st.ID)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	svc.mgr.mu.Lock()
	orderLen, jobsLen := len(svc.mgr.order), len(svc.mgr.jobs)
	svc.mgr.mu.Unlock()
	if jobsLen != 0 {
		t.Errorf("jobs table has %d entries after deleting everything", jobsLen)
	}
	if orderLen != 0 {
		t.Errorf("order list leaks %d stale ids after deletes", orderLen)
	}
}

// TestHealthzAndMetrics smoke-tests the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	ts, _ := testServer(t, Config{})
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}

	st, _ := postCSV(t, ts.URL+"/v1/jobs", []byte("a,b\nx,1\ny,2\nx,3\n"))
	waitDone(t, ts.URL, st.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"zeroedd_jobs_submitted_total 1",
		"zeroedd_rows_ingested_total 3",
		"zeroedd_detect_seconds_count",
		`zeroedd_jobs_current{state="queued"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestUnknownJobRoutes pins 404s for unknown IDs on every job route.
func TestUnknownJobRoutes(t *testing.T) {
	ts, _ := testServer(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope"},
		{http.MethodGet, "/v1/jobs/nope/result"},
		{http.MethodDelete, "/v1/jobs/nope"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}
