package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
)

// metricFamilies fetches /metrics and returns the sorted set of series
// names (label sets and values stripped).
func metricFamilies(t *testing.T, base string) ([]string, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	seen := map[string]bool{}
	sc := bufio.NewScanner(io.TeeReader(resp.Body, &body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		seen[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, body.String()
}

// TestMetricNamesPinned is the exposition-surface regression test: after
// traffic has touched every subsystem (job, fit, score, repair, stream),
// /metrics must export exactly this set of series names. A rename, a
// dropped family, or an accidental new family fails loudly here instead of
// silently breaking dashboards.
func TestMetricNamesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full traffic over HTTP")
	}
	ts, _ := testServer(t, Config{Workers: 2, MaxConcurrentJobs: 2})
	bench := datasets.Hospital(160, 3)
	csv := benchCSV(t, bench.Dirty)

	// One job through the async path...
	st, _ := postCSV(t, ts.URL+"/v1/jobs?seed=1", csv)
	waitDone(t, ts.URL, st.ID)
	// ...and one model through fit, score, repair, and stream, so the
	// conditional families (fit stages, model version, drift, refit health)
	// are all live.
	var ms ModelStatus
	postModelCSV(t, ts.URL+"/v1/models?seed=2", csv, http.StatusCreated, &ms)
	postModelCSV(t, ts.URL+"/v1/models/"+ms.ID+"/score", csv, http.StatusOK, nil)
	postModelCSV(t, ts.URL+"/v1/models/"+ms.ID+"/repair?table=0", csv, http.StatusOK, nil)
	postStream(t, ts.URL+"/v1/models/"+ms.ID+"/stream", "text/csv", csv)

	want := []string{
		"zeroedd_build_info",
		"zeroedd_detect_seconds_bucket",
		"zeroedd_detect_seconds_count",
		"zeroedd_detect_seconds_sum",
		"zeroedd_dropped_columns_total",
		"zeroedd_fit_seconds_bucket",
		"zeroedd_fit_seconds_count",
		"zeroedd_fit_seconds_sum",
		"zeroedd_fit_stage_seconds",
		"zeroedd_http_request_seconds_bucket",
		"zeroedd_http_request_seconds_count",
		"zeroedd_http_request_seconds_sum",
		"zeroedd_http_requests_total",
		"zeroedd_jobs_current",
		"zeroedd_jobs_finished_total",
		"zeroedd_jobs_submitted_total",
		"zeroedd_manifest_missing_total",
		"zeroedd_manifest_write_failures_total",
		"zeroedd_mapped_uploads_total",
		"zeroedd_model_drift",
		"zeroedd_model_load_failures_total",
		"zeroedd_model_refit_breaker",
		"zeroedd_model_refit_consecutive_failures",
		"zeroedd_model_refits_total",
		"zeroedd_model_version",
		"zeroedd_models_current",
		"zeroedd_models_fitted_total",
		"zeroedd_models_quarantined_total",
		"zeroedd_queue_wait_seconds_bucket",
		"zeroedd_queue_wait_seconds_count",
		"zeroedd_queue_wait_seconds_sum",
		"zeroedd_repair_seconds_bucket",
		"zeroedd_repair_seconds_count",
		"zeroedd_repair_seconds_sum",
		"zeroedd_repaired_cells_total",
		"zeroedd_request_deadlines_total",
		"zeroedd_rows_ingested_total",
		"zeroedd_score_seconds_bucket",
		"zeroedd_score_seconds_count",
		"zeroedd_score_seconds_sum",
		"zeroedd_stream_requests_total",
		"zeroedd_stream_rows_total",
	}
	got, body := metricFamilies(t, ts.URL)
	if !equalStrings(got, want) {
		t.Errorf("metric family set drifted:\n got: %v\nwant: %v", got, want)
	}

	// Every sample belongs to a family declared by exactly one # HELP and
	// one # TYPE line; histogram samples belong to their base name.
	help, typ := map[string]int{}, map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				if _, dup := typ[f[2]]; dup {
					t.Errorf("family %s has more than one # TYPE line", f[2])
				}
				typ[f[2]] = f[3]
			}
		}
	}
	for _, name := range got {
		fam := name
		if _, ok := typ[fam]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suf); cut && typ[base] == "histogram" {
					fam = base
				}
			}
		}
		if help[fam] != 1 || typ[fam] == "" {
			t.Errorf("series %s: family %s has %d # HELP lines and # TYPE %q, want one of each", name, fam, help[fam], typ[fam])
		}
	}
	for _, phase := range []string{"detect", "fit", "score", "repair"} {
		if fam := "zeroedd_" + phase + "_seconds"; typ[fam] != "histogram" {
			t.Errorf("%s is # TYPE %q, want histogram", fam, typ[fam])
		}
	}

	// Spot-check the RED series carry real labels: the submit route with its
	// 202, and a per-route latency histogram bucket.
	for _, series := range []string{
		`zeroedd_http_requests_total{route="POST /v1/jobs",code="202"} 1`,
		`zeroedd_http_requests_total{route="POST /v1/models/{id}/score",code="200"} 1`,
		`zeroedd_http_request_seconds_bucket{route="POST /v1/jobs",le="+Inf"} 1`,
		`zeroedd_build_info{version=`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJobTraceSpanTree pins the served span-tree contract: a finished job's
// trace (adopted from the submit request, finished with the job) contains
// every serve phase — queue_wait, ingest, detect with the fit pipeline
// under it — and the phases account for time inside the root, never more
// than it.
func TestJobTraceSpanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a detection job over HTTP")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(160, 3)
	st, _ := postCSV(t, ts.URL+"/v1/jobs?seed=4", benchCSV(t, bench.Dirty))
	waitDone(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var out struct {
		ID    string    `json:"id"`
		State JobState  `json:"state"`
		Trace *obs.Node `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID != st.ID || out.State != JobDone {
		t.Fatalf("trace envelope = %s/%s, want %s/%s", out.ID, out.State, st.ID, JobDone)
	}
	root := out.Trace
	if root == nil {
		t.Fatal("no trace in envelope")
	}
	if root.Name != "POST /v1/jobs" {
		t.Errorf("root span %q, want the route pattern", root.Name)
	}
	if root.Attrs["request_id"] == "" {
		t.Error("root span missing request_id attr")
	}

	var phases int64
	for _, name := range []string{"queue_wait", "ingest", "detect"} {
		n := root.Find(name)
		if n == nil {
			t.Fatalf("span %q missing from job trace", name)
		}
		phases += n.DurUS
	}
	// The pipeline spans ride under detect.
	for _, name := range []string{"fit", "fit.train", "score"} {
		if root.Find(name) == nil {
			t.Errorf("span %q missing from job trace", name)
		}
	}
	// queue_wait + ingest + detect happen sequentially inside the root, so
	// their sum can never exceed the root's duration (small slack for the
	// microsecond rounding of each span).
	if phases > root.DurUS+10 {
		t.Errorf("phase durations sum to %dus, exceeding root %dus", phases, root.DurUS)
	}
	if detect := root.Find("detect"); detect.DurUS <= 0 {
		t.Error("detect span has no duration")
	}
}

// TestRequestIDEchoAndEnvelope pins the correlation contract: a well-formed
// client X-Request-ID is honored (response header + error envelope), a
// missing or hostile one is replaced with a generated ID, and both appear
// in the envelope of a plain 404.
func TestRequestIDEchoAndEnvelope(t *testing.T) {
	ts, _ := testServer(t, Config{})

	get := func(header string) (*http.Response, apiError) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-404404", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(requestIDHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp, env.Error
	}

	resp, apiErr := get("trace-me-42")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(requestIDHeader); got != "trace-me-42" {
		t.Errorf("header echo %q, want the client ID back", got)
	}
	if apiErr.RequestID != "trace-me-42" || apiErr.Code != "not_found" {
		t.Errorf("envelope = %+v, want request_id trace-me-42 and code not_found", apiErr)
	}

	resp, apiErr = get("")
	gen := resp.Header.Get(requestIDHeader)
	if !strings.HasPrefix(gen, "r-") {
		t.Errorf("generated ID %q, want r- prefix", gen)
	}
	if apiErr.RequestID != gen {
		t.Errorf("envelope request_id %q != header %q", apiErr.RequestID, gen)
	}

	resp, _ = get("bad id with spaces")
	if got := resp.Header.Get(requestIDHeader); !strings.HasPrefix(got, "r-") {
		t.Errorf("hostile ID echoed as %q, want a generated replacement", got)
	}
}

// TestReadyz covers both readiness verdicts: ready with a writable (or
// absent) model dir and the loaded-model count, unready when the dir cannot
// accept writes.
func TestReadyz(t *testing.T) {
	ts, _ := testServer(t, Config{ModelDir: t.TempDir()})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ready" || out.Models != 0 {
		t.Errorf("readyz = %+v, want ready with 0 models", out)
	}
}

// TestTraceQueryEmbedsSpans pins ?trace=1 on the synchronous endpoints:
// the fit response gains a trace field whose tree contains the ingest and
// fit pipeline spans, the score response one with ingest, score and the
// respond span that times its own encoding, and the same fit request
// without ?trace=1 has none.
func TestTraceQueryEmbedsSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over HTTP")
	}
	ts, _ := testServer(t, Config{Workers: 2, ModelDir: t.TempDir()})
	csv := benchCSV(t, datasets.Hospital(160, 3).Dirty)

	var traced struct {
		ModelStatus
		Trace *obs.Node `json:"trace"`
	}
	postModelCSV(t, ts.URL+"/v1/models?seed=6&trace=1", csv, http.StatusCreated, &traced)
	if traced.Trace == nil {
		t.Fatal("?trace=1 fit response has no trace")
	}
	for _, name := range []string{"ingest", "fit", "fit.train", "encode", "persist"} {
		if traced.Trace.Find(name) == nil {
			t.Errorf("span %q missing from ?trace=1 fit response", name)
		}
	}

	status, _, body := postBody(t, ts.URL+"/v1/models/"+traced.ID+"/score?trace=1", "text/csv", csv)
	var scored ScoreResult
	if err := json.Unmarshal(body, &scored); status != http.StatusOK || err != nil {
		t.Fatalf("?trace=1 score: status %d, %v", status, err)
	}
	for _, name := range []string{"ingest", "score", "respond"} {
		if scored.Trace.Find(name) == nil {
			t.Errorf("span %q missing from ?trace=1 score response", name)
		}
	}

	var plain struct {
		ModelStatus
		Trace *obs.Node `json:"trace"`
	}
	postModelCSV(t, ts.URL+"/v1/models?seed=7", csv, http.StatusCreated, &plain)
	if plain.Trace != nil {
		t.Error("fit response without ?trace=1 embedded a trace")
	}
}

// TestDebugTraceRing pins the slow-request ring: with TraceSlow at zero
// every request is retained, GET /debug/traces lists it, and GET
// /debug/traces/{seq} serves loadable Chrome trace_event JSON.
func TestDebugTraceRing(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over HTTP")
	}
	svcTS, svc := testServer(t, Config{Workers: 2})
	dbg := httptest.NewServer(svc.DebugHandler())
	t.Cleanup(dbg.Close)

	csv := benchCSV(t, datasets.Hospital(160, 3).Dirty)
	postModelCSV(t, svcTS.URL+"/v1/models?seed=8", csv, http.StatusCreated, nil)

	resp, err := http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []obs.Retained `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("no retained traces; TraceSlow defaults to 0 so every request retains")
	}
	ret := list.Traces[0]
	if ret.Name != "POST /v1/models" || ret.Spans == 0 {
		t.Errorf("retained trace = %+v, want the fit route with spans", ret)
	}

	resp2, err := http.Get(fmt.Sprintf("%s/debug/traces/%d", dbg.URL, ret.Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&chrome); err != nil {
		t.Fatalf("retained trace is not Chrome trace_event JSON: %v", err)
	}
	if len(chrome.TraceEvents) != ret.Spans {
		t.Errorf("chrome export has %d events, listing says %d spans", len(chrome.TraceEvents), ret.Spans)
	}
}
