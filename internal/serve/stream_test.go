package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// streamOut is one parsed NDJSON stream response.
type streamOut struct {
	status  int
	lines   []streamLine
	events  int
	summary *streamSummary
	errLine string
	raw     []string // raw verdict-line bytes, for byte-identity checks
}

// postStream sends a stream request and parses the NDJSON frames.
func postStream(t *testing.T, url, contentType string, body []byte) streamOut {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := streamOut{status: resp.StatusCode}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("unparseable stream line %q: %v", line, err)
		}
		switch {
		case probe["error"] != nil:
			out.errLine = line
		case probe["event"] != nil:
			out.events++
		case probe["done"] != nil:
			var sum streamSummary
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			out.summary = &sum
		default:
			var l streamLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatal(err)
			}
			out.lines = append(out.lines, l)
			out.raw = append(out.raw, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// fitHTTPModel fits one model over the wire and returns its status.
func fitHTTPModel(t *testing.T, base string, csv []byte, query string) ModelStatus {
	t.Helper()
	var st ModelStatus
	postModelCSV(t, base+"/v1/models"+query, csv, http.StatusCreated, &st)
	return st
}

// rowsCSV renders raw rows under a header as CSV bytes.
func rowsCSV(t *testing.T, attrs []string, rows [][]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(strings.Join(attrs, ",") + "\n")
	for _, r := range rows {
		buf.WriteString(strings.Join(r, ",") + "\n")
	}
	return buf.Bytes()
}

// dsRows materializes the first n rows of a dataset, cycling when n exceeds
// the dataset (values stay within the fit dictionaries).
func dsRows(ds *table.Dataset, n int) [][]string {
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		rows[i] = ds.Row(i % ds.NumRows())
	}
	return rows
}

// novelRows builds rows whose every cell is unseen at fit time.
func novelRows(cols, n int) [][]string {
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, cols)
		for j := range row {
			row[j] = fmt.Sprintf("novel-%d-%d", j, i%17)
		}
		rows[i] = row
	}
	return rows
}

// TestStreamEndpointChunkInvariance pins the transport half of the
// chunking-invariance contract: the same body streamed with different
// server-side chunk sizes yields byte-identical verdict lines.
func TestStreamEndpointChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(150, 5)
	csv := benchCSV(t, bench.Dirty)
	st := fitHTTPModel(t, ts.URL, csv, "?seed=5")

	// A couple of unseen values exercise the cold path across chunk splits.
	bodyRows := dsRows(bench.Dirty, 90)
	bodyRows[7][0] = "stream-novel-a"
	bodyRows[71][2] = "stream-novel-b"
	body := rowsCSV(t, st.Attrs, bodyRows)

	base := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?chunk=64", "text/csv", body)
	if base.status != http.StatusOK || base.errLine != "" {
		t.Fatalf("stream status %d, err %q", base.status, base.errLine)
	}
	if len(base.lines) != 90 || base.summary == nil || base.summary.Rows != 90 {
		t.Fatalf("stream returned %d lines, summary %+v", len(base.lines), base.summary)
	}
	for _, chunk := range []string{"1", "7", "90"} {
		got := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?chunk="+chunk, "text/csv", body)
		if got.status != http.StatusOK || got.errLine != "" {
			t.Fatalf("chunk=%s status %d, err %q", chunk, got.status, got.errLine)
		}
		if len(got.raw) != len(base.raw) {
			t.Fatalf("chunk=%s returned %d lines, want %d", chunk, len(got.raw), len(base.raw))
		}
		for i := range base.raw {
			if got.raw[i] != base.raw[i] {
				t.Fatalf("chunk=%s line %d differs:\n  %s\n  %s", chunk, i, got.raw[i], base.raw[i])
			}
		}
	}
}

// TestStreamNDJSONBody: NDJSON array and object framings score identically
// to the CSV framing of the same rows.
func TestStreamNDJSONBody(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(120, 3)
	csv := benchCSV(t, bench.Dirty)
	st := fitHTTPModel(t, ts.URL, csv, "?seed=3")

	rows := dsRows(bench.Dirty, 40)
	want := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, st.Attrs, rows))
	if want.status != http.StatusOK || want.errLine != "" {
		t.Fatalf("csv stream status %d, err %q", want.status, want.errLine)
	}

	var arr, obj bytes.Buffer
	for _, r := range rows {
		a, _ := json.Marshal(r)
		arr.Write(a)
		arr.WriteByte('\n')
		m := map[string]string{}
		for j, attr := range st.Attrs {
			m[attr] = r[j]
		}
		o, _ := json.Marshal(m)
		obj.Write(o)
		obj.WriteByte('\n')
	}
	for name, body := range map[string][]byte{"array": arr.Bytes(), "object": obj.Bytes()} {
		got := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?format=ndjson", "application/x-ndjson", body)
		if got.status != http.StatusOK || got.errLine != "" {
			t.Fatalf("%s stream status %d, err %q", name, got.status, got.errLine)
		}
		if len(got.raw) != len(want.raw) {
			t.Fatalf("%s stream returned %d lines, want %d", name, len(got.raw), len(want.raw))
		}
		for i := range want.raw {
			if got.raw[i] != want.raw[i] {
				t.Fatalf("%s stream line %d differs from CSV framing", name, i)
			}
		}
	}
}

// TestStreamRejections pins the stream endpoint's boundary validation.
func TestStreamRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(120, 3)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=3")

	// Failures before the first verdict are a plain error status. An
	// upload that fails on its header gets the code /score gives it.
	cases := []struct {
		name, id, query, body string
		want                  int
		code                  string
		header                bool // compare with /score on the same upload
	}{
		{"unknown model", "m-404404", "", "a,b\n1,2\n", http.StatusNotFound, "not_found", false},
		{"wrong header", st.ID, "", "x,y\n1,2\n", http.StatusBadRequest, "missing_columns", true},
		{"bad chunk", st.ID, "?chunk=0", "", http.StatusBadRequest, "bad_param", false},
		{"bad format", st.ID, "?format=xml", "", http.StatusBadRequest, "bad_upload", true},
		{"empty body", st.ID, "", "", http.StatusBadRequest, "bad_upload", true},
	}
	for _, c := range cases {
		base := ts.URL + "/v1/models/" + c.id
		status, code, raw := postBody(t, base+"/stream"+c.query, "text/csv", []byte(c.body))
		if status != c.want || code != c.code {
			t.Errorf("%s: status %d code %q, want %d %q (%s)", c.name, status, code, c.want, c.code, raw)
		}
		if !c.header {
			continue
		}
		if sStatus, sCode, _ := postBody(t, base+"/score"+c.query, "text/csv", []byte(c.body)); sStatus != status || sCode != code {
			t.Errorf("%s: /score answers %d %q, /stream %d %q", c.name, sStatus, sCode, status, code)
		}
	}
}

// TestDeleteDefersArtifactsUntilPinsDrain is the deterministic half of the
// evict-while-scoring regression: while a request pins a model, DELETE
// evicts the id (new requests 404) but must leave the artifact files on
// disk; the last release reaps them.
func TestDeleteDefersArtifactsUntilPinsDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	dir := t.TempDir()
	ts, svc := testServer(t, Config{Workers: 2, ModelDir: dir})
	bench := datasets.Hospital(120, 3)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=3")
	artifact := filepath.Join(dir, artifactFile(st.ID, 1))
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("artifact missing after fit: %v", err)
	}

	e, ok := svc.reg.acquire(st.ID) // simulate an in-flight score
	if !ok {
		t.Fatal("acquire failed")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	// Evicted: new requests 404 ...
	if _, ok := svc.reg.get(st.ID); ok {
		t.Fatal("model still visible after delete")
	}
	// ... but the pinned request's artifact survives until the pin drains.
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("artifact reaped while pinned: %v", err)
	}
	if e.m == nil {
		t.Fatal("pinned entry lost its model")
	}
	svc.reg.release(st.ID)
	if _, err := os.Stat(artifact); !os.IsNotExist(err) {
		t.Fatalf("artifact not reaped after last release: %v", err)
	}
}

// TestDeleteWhileScoringConcurrent hammers /score from several goroutines
// while the model is deleted mid-flight: every response must be a complete
// 200 or a clean 404 — never a 5xx or a torn body. Run with -race.
func TestDeleteWhileScoringConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	dir := t.TempDir()
	ts, _ := testServer(t, Config{Workers: 4, ModelDir: dir})
	bench := datasets.Hospital(120, 3)
	csv := benchCSV(t, bench.Dirty)
	st := fitHTTPModel(t, ts.URL, csv, "?seed=3")
	body := rowsCSV(t, st.Attrs, dsRows(bench.Dirty, 30))

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				resp, err := http.Post(ts.URL+"/v1/models/"+st.ID+"/score", "text/csv", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var sr ScoreResult
					if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || sr.Rows != 30 {
						errs <- fmt.Sprintf("torn 200 body: rows=%d err=%v", sr.Rows, err)
					}
				case http.StatusNotFound:
					// deleted; fine
				default:
					errs <- fmt.Sprintf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let scoring get in flight
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// All pins drained: the artifact must be gone.
	if _, err := os.Stat(filepath.Join(dir, artifactFile(st.ID, 1))); !os.IsNotExist(err) {
		t.Fatalf("artifact survived delete after pins drained: %v", err)
	}
}

// waitRunning polls a job until it holds a running slot.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		switch st := jobStatus(t, base, id); st.State {
		case JobRunning:
			return
		case JobDone, JobFailed, JobCanceled:
			t.Fatalf("job %s ended (%s) before it was seen running", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestRetryAfterUnified pins the one 429 contract: with the admission queue
// full of real traffic, a job submit and a model fit both answer 429
// queue_full with Retry-After: 1 and the structured error envelope.
func TestRetryAfterUnified(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1, MaxQueuedJobs: 1})
	small := []byte("a,b\n1,2\n3,4\n")

	// One detect job holds the one running slot, a second takes the one
	// queue spot.
	first, r0 := postCSV(t, ts.URL+"/v1/jobs", benchCSV(t, datasets.Hospital(300, 2).Dirty))
	if r0.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r0.StatusCode)
	}
	waitRunning(t, ts.URL, first.ID)
	if _, r := postCSV(t, ts.URL+"/v1/jobs", small); r.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", r.StatusCode)
	}

	for _, path := range []string{"/v1/jobs", "/v1/models"} {
		resp, err := http.Post(ts.URL+path, "text/csv", bytes.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		var envelope map[string]apiError
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s with a full queue: status %d, want 429", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("POST %s 429 Retry-After = %q, want \"1\"", path, got)
		}
		if envelope["error"].Code != "queue_full" || envelope["error"].Message == "" {
			t.Fatalf("POST %s 429 envelope = %+v", path, envelope)
		}
	}
	waitDone(t, ts.URL, first.ID)
}

// TestFitWaitsForJobSlot pins that fits and detect jobs share the running
// slots: with MaxConcurrentJobs 1, a fit posted while a detect job runs
// waits for the job to release its slot, then fits and returns 201, and
// the queue-wait histogram counts both units.
func TestFitWaitsForJobSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1})
	job, resp := postCSV(t, ts.URL+"/v1/jobs", benchCSV(t, datasets.Hospital(400, 2).Dirty))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitRunning(t, ts.URL, job.ID)

	var fit struct {
		ModelStatus
		Trace *obs.Node `json:"trace"`
	}
	postModelCSV(t, ts.URL+"/v1/models?seed=3&trace=1", benchCSV(t, datasets.Hospital(120, 3).Dirty), http.StatusCreated, &fit)
	// The fit could only start once the job released the slot, and the
	// job releases it after settling.
	if st := waitDone(t, ts.URL, job.ID); st.State != JobDone || st.Finished == nil {
		t.Fatalf("job after the fit: %+v", st)
	}
	if fit.Trace == nil || fit.Trace.Find("queue_wait") == nil {
		t.Fatalf("fit trace has no queue_wait span: %+v", fit.Trace)
	}
	if text := metricsText(t, ts.URL); !strings.Contains(text, "zeroedd_queue_wait_seconds_count 2\n") {
		t.Fatalf("queue wait not counted once per unit:\n%s", text)
	}
}

// TestFitSlotWaitDeadline pins that a fit's wait for a running slot counts
// against the request timeout: a fit still waiting when it expires gets the
// typed 503 deadline, not a 429 or a 500.
func TestFitSlotWaitDeadline(t *testing.T) {
	ts, _ := testServer(t, Config{Workers: 1, MaxConcurrentJobs: 1, RequestTimeout: 300 * time.Millisecond})
	job, resp := postCSV(t, ts.URL+"/v1/jobs", benchCSV(t, datasets.Hospital(400, 2).Dirty))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitRunning(t, ts.URL, job.ID)

	fresp, err := http.Post(ts.URL+"/v1/models", "text/csv", bytes.NewReader(benchCSV(t, datasets.Hospital(120, 3).Dirty)))
	if err != nil {
		t.Fatal(err)
	}
	var envelope map[string]apiError
	err = json.NewDecoder(fresp.Body).Decode(&envelope)
	fresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fresp.StatusCode != http.StatusServiceUnavailable || envelope["error"].Code != "deadline" {
		t.Fatalf("fit waiting past the deadline: status %d, envelope %+v", fresp.StatusCode, envelope)
	}
	if fresp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline response missing Retry-After")
	}
	if st := waitDone(t, ts.URL, job.ID); st.State != JobDone {
		t.Fatalf("job holding the slot: %+v", st)
	}
}

// TestStreamHotSwapUnderLoad is the tentpole acceptance test: more than a
// thousand rows streamed by concurrent clients across a drift-triggered
// refit, with zero dropped or failed rows, every verdict line bit-identical
// to scoring the same row against the artifact of the version the line
// claims — no torn chunks — and the hot-swapped version visible in the
// registry with the old artifact retained for rollback.
func TestStreamHotSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("fits several models")
	}
	dir := t.TempDir()
	ts, _ := testServer(t, Config{
		Workers:         4,
		ModelDir:        dir,
		MaxRows:         400, // bounds the refit accumulator, keeps refits fast
		StreamChunkRows: 64,
		DriftThreshold:  0.15,
		// The shift gauge over a PARTIAL replay of the fit data reads high
		// (sampling variance), so tripping is deferred until the warm phase
		// has streamed in full.
		DriftMinRows: 400,
	})
	bench := datasets.Hospital(250, 5)
	csv := benchCSV(t, bench.Dirty)
	st := fitHTTPModel(t, ts.URL, csv, "?seed=5")

	// Phase 1: fill the refit accumulator with fit-like rows (zero unseen
	// mass, shift stays far below the threshold — no trip).
	warm := dsRows(bench.Dirty, 400)
	out := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, st.Attrs, warm))
	if out.status != http.StatusOK || out.errLine != "" || len(out.lines) != 400 {
		t.Fatalf("warm stream: status %d err %q lines %d", out.status, out.errLine, len(out.lines))
	}
	if out.summary.Refits != 0 || out.summary.Drift.UnseenRate != 0 {
		t.Fatalf("warm stream tripped: %+v", out.summary)
	}

	// Phase 2: three concurrent streams — one all-novel (drives the
	// unseen-value gauge over the threshold), two fit-like — racing the
	// background refit and the hot swap.
	sets := [][][]string{
		novelRows(len(st.Attrs), 250),
		dsRows(bench.Dirty, 250),
		dsRows(bench.Dirty, 250),
	}
	outs := make([]streamOut, len(sets))
	var wg sync.WaitGroup
	for i, rows := range sets {
		wg.Add(1)
		go func(i int, rows [][]string) {
			defer wg.Done()
			outs[i] = postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?chunk=32", "text/csv", rowsCSV(t, st.Attrs, rows))
		}(i, rows)
	}
	wg.Wait()
	totalRows := 400
	refitEvents := 0
	for i, o := range outs {
		if o.status != http.StatusOK || o.errLine != "" {
			t.Fatalf("stream %d: status %d err %q", i, o.status, o.errLine)
		}
		if len(o.lines) != len(sets[i]) {
			t.Fatalf("stream %d: %d verdict lines for %d rows (dropped rows)", i, len(o.lines), len(sets[i]))
		}
		for j, l := range o.lines {
			if l.Row != j {
				t.Fatalf("stream %d: line %d claims row %d", i, j, l.Row)
			}
		}
		totalRows += len(o.lines)
		refitEvents += o.events + o.summary.Refits
	}
	if totalRows < 1000 {
		t.Fatalf("streamed only %d rows, want >= 1000", totalRows)
	}
	if refitEvents == 0 {
		t.Fatal("no stream reported a triggered refit")
	}

	// The swap lands asynchronously; wait for the registry version to
	// advance and for all started refits to settle.
	deadline := time.Now().Add(120 * time.Second)
	var info ModelStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("model never hot-swapped: %+v", info)
		}
		resp, err := http.Get(ts.URL + "/v1/models/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.Version >= 2 && refitsSettled(t, ts.URL) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if info.RefitRows == 0 {
		t.Fatalf("hot-swapped model has no refit lineage: %+v", info)
	}

	// Every served version's artifact is on disk — v1 retained for rollback.
	models := map[int]*zeroed.Model{}
	loadVersion := func(v int) *zeroed.Model {
		if m, ok := models[v]; ok {
			return m
		}
		m, err := model.LoadFile(filepath.Join(dir, artifactFile(st.ID, v)))
		if err != nil {
			t.Fatalf("artifact for served version %d missing: %v", v, err)
		}
		models[v] = m
		return m
	}

	// Bit-identity per line: group each response's consecutive same-version
	// runs and score them against that version's artifact. A torn chunk —
	// half old model, half new — cannot pass this.
	verify := func(rows [][]string, o streamOut) {
		for start := 0; start < len(o.lines); {
			end := start
			for end < len(o.lines) && o.lines[end].Version == o.lines[start].Version {
				end++
			}
			m := loadVersion(o.lines[start].Version)
			res, err := m.ScoreRowsOn(context.Background(), nil, rows[start:end])
			if err != nil {
				t.Fatal(err)
			}
			for i := start; i < end; i++ {
				for j := range o.lines[i].Pred {
					if o.lines[i].Pred[j] != res.Pred[i-start][j] {
						t.Fatalf("row %d verdict differs from version-%d artifact", i, o.lines[i].Version)
					}
					if math.Float64bits(o.lines[i].Scores[j]) != math.Float64bits(res.Scores[i-start][j]) {
						t.Fatalf("row %d score bits differ from version-%d artifact", i, o.lines[i].Version)
					}
				}
			}
			start = end
		}
	}
	verify(warm, out)
	for i := range outs {
		verify(sets[i], outs[i])
	}

	// Metrics: drift gauges and the swapped version are exported.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("zeroedd_model_version{model=%q} %d", st.ID, info.Version),
		fmt.Sprintf("zeroedd_model_drift{model=%q,gauge=\"unseen_rate\"}", st.ID),
		fmt.Sprintf("zeroedd_model_drift{model=%q,gauge=\"shift\"}", st.ID),
		"zeroedd_stream_rows_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// refitsSettled reports whether every started refit has finished (swapped
// or failed), read from the metrics endpoint.
func refitsSettled(t *testing.T, base string) bool {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "zeroedd_model_refits_total{outcome=") {
			continue
		}
		var outcome string
		var n int
		if _, err := fmt.Sscanf(line, "zeroedd_model_refits_total{outcome=%q} %d", &outcome, &n); err == nil {
			counts[outcome] = n
		}
	}
	return counts["started"] == counts["swapped"]+counts["failed"]
}

// TestCloseWaitsForRefit pins that shutdown owns drift refits: Close while a
// refit waits for the running slot (held by a detect job) returns only once
// the refit has ended, counted as failed or swapped. No refit goroutine is
// left behind and the model directory stops changing.
func TestCloseWaitsForRefit(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model and streams into a refit")
	}
	dir := t.TempDir()
	ts, svc := testServer(t, Config{
		Workers:           2,
		MaxConcurrentJobs: 1,
		ModelDir:          dir,
		MaxRows:           400,
		StreamChunkRows:   64,
		DriftThreshold:    0.15,
		DriftMinRows:      400,
	})
	bench := datasets.Hospital(250, 5)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=5")
	warm := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, st.Attrs, dsRows(bench.Dirty, 400)))
	if warm.status != http.StatusOK || warm.errLine != "" {
		t.Fatalf("warm stream: status %d err %q", warm.status, warm.errLine)
	}

	job, resp := postCSV(t, ts.URL+"/v1/jobs", benchCSV(t, datasets.Hospital(400, 2).Dirty))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitRunning(t, ts.URL, job.ID)
	novel := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, st.Attrs, novelRows(len(st.Attrs), 250)))
	if novel.status != http.StatusOK || novel.errLine != "" || novel.events == 0 {
		t.Fatalf("novel stream did not start a refit: status %d err %q events %d", novel.status, novel.errLine, novel.events)
	}

	svc.Close()
	buf := make([]byte, 1<<20)
	if stacks := buf[:runtime.Stack(buf, true)]; bytes.Contains(stacks, []byte("(*Server).runRefit")) {
		t.Fatalf("a refit goroutine outlived Close:\n%s", stacks)
	}
	text := metricsText(t, ts.URL)
	var started, swapped, failed int
	for _, c := range []struct {
		outcome string
		n       *int
	}{{"started", &started}, {"swapped", &swapped}, {"failed", &failed}} {
		line := fmt.Sprintf("zeroedd_model_refits_total{outcome=%q} ", c.outcome)
		i := strings.Index(text, line)
		if i < 0 {
			t.Fatalf("metrics missing %s", line)
		}
		fmt.Sscanf(text[i+len(line):], "%d", c.n)
	}
	if started == 0 || started != swapped+failed {
		t.Fatalf("refits after Close: started %d, swapped %d, failed %d", started, swapped, failed)
	}
	before := dirNames(t, dir, "")
	time.Sleep(300 * time.Millisecond)
	if after := dirNames(t, dir, ""); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("model dir changed after Close: %v -> %v", before, after)
	}
}
