package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/table"
)

// errEnvelope decodes the service's structured error responses.
type errEnvelope struct {
	Error apiError `json:"error"`
}

// postBody posts raw bytes with an explicit Content-Type and returns the
// status plus the decoded error code (empty on success).
func postBody(t *testing.T, url, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var env errEnvelope
	_ = json.Unmarshal(buf.Bytes(), &env)
	return resp.StatusCode, env.Error.Code, buf.Bytes()
}

// ndjsonBody renders rows as NDJSON array lines, prefixed with a header
// line when selfDescribing (jobs/fit bodies carry their own header; bodies
// bound to a model schema do not).
func ndjsonBody(t *testing.T, attrs []string, rows [][]string, selfDescribing bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if selfDescribing {
		if err := enc.Encode(attrs); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// dsAllRows materializes every row of a dataset.
func dsAllRows(ds *table.Dataset) [][]string {
	rows := make([][]string, ds.NumRows())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	return rows
}

// TestRequestFormatNegotiation is the parameterized regression for the
// Content-Type switch: media-type parameters like "; charset=utf-8" used to
// defeat a raw string match and silently fall back to CSV. The ?format
// query parameter always wins; unrecognized media types default to CSV.
func TestRequestFormatNegotiation(t *testing.T) {
	cases := []struct {
		name, url, contentType, want string
		wantErr                      bool
	}{
		{"bare csv", "/", "text/csv", table.FormatCSV, false},
		{"csv with charset", "/", "text/csv; charset=utf-8", table.FormatCSV, false},
		{"application csv", "/", "application/csv", table.FormatCSV, false},
		{"bare ndjson", "/", "application/x-ndjson", table.FormatNDJSON, false},
		{"ndjson with charset", "/", "application/x-ndjson; charset=utf-8", table.FormatNDJSON, false},
		{"ndjson alias", "/", "application/ndjson", table.FormatNDJSON, false},
		{"jsonl alias", "/", "application/jsonl", table.FormatNDJSON, false},
		{"json", "/", "application/json; charset=utf-8", table.FormatNDJSON, false},
		{"no content type", "/", "", table.FormatCSV, false},
		{"unknown type defaults csv", "/", "text/plain; charset=utf-8", table.FormatCSV, false},
		{"malformed type defaults csv", "/", ";;;", table.FormatCSV, false},
		{"query wins over header", "/?format=ndjson", "text/csv; charset=utf-8", table.FormatNDJSON, false},
		{"query csv wins", "/?format=csv", "application/x-ndjson", table.FormatCSV, false},
		{"bad query format", "/?format=xml", "text/csv", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := httptest.NewRequest("POST", c.url, nil)
			if c.contentType != "" {
				r.Header.Set("Content-Type", c.contentType)
			}
			got, err := requestFormat(r)
			if c.wantErr {
				if err == nil {
					t.Fatalf("want an error, got format %q", got)
				}
				return
			}
			if err != nil || got != c.want {
				t.Fatalf("requestFormat = (%q, %v), want %q", got, err, c.want)
			}
		})
	}
}

// TestJobsNDJSONMatchesCSV pins cross-format verdict equality at the jobs
// endpoint: the same rows submitted as CSV and as self-describing NDJSON
// produce byte-identical verdicts and score bits.
func TestJobsNDJSONMatchesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two detection jobs")
	}
	ts, _ := testServer(t, Config{Workers: 2, MaxConcurrentJobs: 2})
	bench := datasets.Hospital(120, 3)
	csvBytes := benchCSV(t, bench.Dirty)
	ndjsonBytes := ndjsonBody(t, bench.Dirty.Attrs, dsAllRows(bench.Dirty), true)

	st, resp := postCSV(t, ts.URL+"/v1/jobs?seed=4", csvBytes)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("csv submit status %d", resp.StatusCode)
	}
	status, _, body := postBody(t, ts.URL+"/v1/jobs?seed=4", "application/x-ndjson; charset=utf-8", ndjsonBytes)
	if status != http.StatusAccepted {
		t.Fatalf("ndjson submit status %d: %s", status, body)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}

	if s := waitDone(t, ts.URL, st.ID); s.State != JobDone {
		t.Fatalf("csv job ended %s: %s", s.State, s.Error)
	}
	if s := waitDone(t, ts.URL, st2.ID); s.State != JobDone {
		t.Fatalf("ndjson job ended %s: %s", s.State, s.Error)
	}
	a, b := getResult(t, ts.URL, st.ID), getResult(t, ts.URL, st2.ID)
	aj, _ := json.Marshal(struct {
		P [][]bool
		S [][]float64
	}{a.Pred, a.Scores})
	bj, _ := json.Marshal(struct {
		P [][]bool
		S [][]float64
	}{b.Pred, b.Scores})
	if !bytes.Equal(aj, bj) {
		t.Fatal("NDJSON job verdicts differ from the CSV job on the same rows")
	}
}

// TestScoreSchemaMapping pins the schema-mapping contract at the score
// endpoint: permuted headers score byte-identically to the schema-ordered
// upload, supersets drop (and report) the extra columns, missing schema
// columns are a typed 400, and ambiguous duplicate headers are rejected.
func TestScoreSchemaMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(150, 5)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=5")
	attrs := st.Attrs
	rows := dsRows(bench.Dirty, 60)

	verdictBits := func(raw []byte) string {
		t.Helper()
		var probe struct {
			Pred   json.RawMessage `json:"pred"`
			Scores json.RawMessage `json:"scores"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		return string(probe.Pred) + "|" + string(probe.Scores)
	}

	status, _, base := postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "text/csv", rowsCSV(t, attrs, rows))
	if status != http.StatusOK {
		t.Fatalf("identity score status %d: %s", status, base)
	}
	want := verdictBits(base)

	// Permutation: reversed column order, same cells.
	rev := make([]int, len(attrs))
	for i := range rev {
		rev[i] = len(attrs) - 1 - i
	}
	permAttrs := make([]string, len(attrs))
	permRows := make([][]string, len(rows))
	for j, i := range rev {
		permAttrs[j] = attrs[i]
	}
	for k, r := range rows {
		pr := make([]string, len(r))
		for j, i := range rev {
			pr[j] = r[i]
		}
		permRows[k] = pr
	}
	status, _, raw := postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "text/csv", rowsCSV(t, permAttrs, permRows))
	if status != http.StatusOK {
		t.Fatalf("permuted score status %d: %s", status, raw)
	}
	if verdictBits(raw) != want {
		t.Fatal("permuted upload verdicts differ from the schema-ordered upload")
	}

	// Superset: an extra leading and trailing column, dropped and reported.
	supAttrs := append(append([]string{"junk"}, attrs...), "extra")
	supRows := make([][]string, len(rows))
	for k, r := range rows {
		supRows[k] = append(append([]string{"J"}, r...), "E")
	}
	status, _, raw = postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "text/csv", rowsCSV(t, supAttrs, supRows))
	if status != http.StatusOK {
		t.Fatalf("superset score status %d: %s", status, raw)
	}
	if verdictBits(raw) != want {
		t.Fatal("superset upload verdicts differ from the schema-ordered upload")
	}
	var sr ScoreResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if strings.Join(sr.DroppedCols, ",") != "junk,extra" {
		t.Fatalf("DroppedCols = %v, want [junk extra]", sr.DroppedCols)
	}

	// NDJSON bound framing of the same rows: identical verdict bits.
	status, _, raw = postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "application/x-ndjson; charset=utf-8",
		ndjsonBody(t, attrs, rows, false))
	if status != http.StatusOK {
		t.Fatalf("ndjson score status %d: %s", status, raw)
	}
	if verdictBits(raw) != want {
		t.Fatal("NDJSON upload verdicts differ from the CSV upload")
	}

	// Missing schema column: typed 400.
	status, code, _ := postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "text/csv",
		rowsCSV(t, attrs[1:], nil))
	if status != http.StatusBadRequest || code != "missing_columns" {
		t.Fatalf("missing column: status %d code %q, want 400 missing_columns", status, code)
	}

	// Duplicate upload header: ambiguous, rejected.
	dupAttrs := append(append([]string(nil), attrs...), attrs[0])
	status, code, _ = postBody(t, ts.URL+"/v1/models/"+st.ID+"/score", "text/csv",
		rowsCSV(t, dupAttrs, nil))
	if status != http.StatusBadRequest || code != "bad_upload" {
		t.Fatalf("duplicate header: status %d code %q, want 400 bad_upload", status, code)
	}
}

// TestRepairEndpointMatchesLocalPipeline pins the served detect→repair
// loop's determinism contract: the endpoint's change log and corrected
// table are identical to scoring the same artifact over the same bytes and
// applying the repairer locally — the computation `zeroed -model-in
// -repair` runs — including through a schema-mapped (permuted, superset)
// upload. ?table=0 suppresses the corrected table.
func TestRepairEndpointMatchesLocalPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	dir := t.TempDir()
	ts, _ := testServer(t, Config{Workers: 2, ModelDir: dir})
	bench := datasets.Hospital(150, 5)
	csvBytes := benchCSV(t, bench.Dirty)
	st := fitHTTPModel(t, ts.URL, csvBytes, "?seed=5")

	// Local reference: load the same artifact, score the same bytes with no
	// refit, apply the same repair defaults.
	m, err := model.LoadFile(filepath.Join(dir, st.ID+".zedm"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := table.Read("repair", table.FormatCSV, bytes.NewReader(csvBytes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ScoreOn(context.Background(), nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	repaired, fixes := repair.New(repair.Config{}).Apply(ref, res.Pred)
	if len(fixes) == 0 {
		t.Fatal("reference repair proposed no fixes; the benchmark should have repairable errors")
	}

	assertMatches := func(raw []byte, wantDropped []string) {
		t.Helper()
		var rr RepairResult
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Rows != ref.NumRows() || rr.Repaired != len(fixes) || len(rr.Changes) != len(fixes) {
			t.Fatalf("rows=%d repaired=%d changes=%d, want rows=%d repaired=%d",
				rr.Rows, rr.Repaired, len(rr.Changes), ref.NumRows(), len(fixes))
		}
		for i, f := range fixes {
			c := rr.Changes[i]
			if c.Row != f.Row || c.Col != f.Col || c.Attr != m.Attrs()[f.Col] ||
				c.Old != f.Old || c.New != f.New || c.Strategy != string(f.Strategy) {
				t.Fatalf("change %d = %+v, want fix %+v", i, c, f)
			}
		}
		if len(rr.Table) != repaired.NumRows() {
			t.Fatalf("table has %d rows, want %d", len(rr.Table), repaired.NumRows())
		}
		for i := range rr.Table {
			for j := range rr.Table[i] {
				if rr.Table[i][j] != repaired.Value(i, j) {
					t.Fatalf("corrected cell (%d,%d) = %q, want %q", i, j, rr.Table[i][j], repaired.Value(i, j))
				}
			}
		}
		if strings.Join(rr.DroppedCols, ",") != strings.Join(wantDropped, ",") {
			t.Fatalf("DroppedCols = %v, want %v", rr.DroppedCols, wantDropped)
		}
		if rr.Flagged == 0 || rr.ModelID != st.ID {
			t.Fatalf("flagged=%d model=%q", rr.Flagged, rr.ModelID)
		}
	}

	status, _, raw := postBody(t, ts.URL+"/v1/models/"+st.ID+"/repair", "text/csv; charset=utf-8", csvBytes)
	if status != http.StatusOK {
		t.Fatalf("repair status %d: %s", status, raw)
	}
	assertMatches(raw, nil)

	// The same rows through a permuted superset header: identical changes
	// and corrected table, extras reported.
	attrs := m.Attrs()
	rows := dsAllRows(bench.Dirty)
	supAttrs := append([]string{"zz"}, attrs[len(attrs)-1])
	supAttrs = append(supAttrs, attrs[:len(attrs)-1]...)
	supRows := make([][]string, len(rows))
	for k, r := range rows {
		supRows[k] = append([]string{"Z", r[len(r)-1]}, r[:len(r)-1]...)
	}
	status, _, raw = postBody(t, ts.URL+"/v1/models/"+st.ID+"/repair", "text/csv", rowsCSV(t, supAttrs, supRows))
	if status != http.StatusOK {
		t.Fatalf("mapped repair status %d: %s", status, raw)
	}
	assertMatches(raw, []string{"zz"})

	// ?table=0 keeps the change log and drops the corrected table.
	status, _, raw = postBody(t, ts.URL+"/v1/models/"+st.ID+"/repair?table=0", "text/csv", csvBytes)
	if status != http.StatusOK {
		t.Fatalf("table=0 repair status %d: %s", status, raw)
	}
	var slim RepairResult
	if err := json.Unmarshal(raw, &slim); err != nil {
		t.Fatal(err)
	}
	if slim.Table != nil || len(slim.Changes) != len(fixes) {
		t.Fatalf("table=0: table=%d changes=%d, want no table and %d changes",
			len(slim.Table), len(slim.Changes), len(fixes))
	}

	// Unknown model id 404s like every other model endpoint.
	status, code, _ := postBody(t, ts.URL+"/v1/models/m-404404/repair", "text/csv", csvBytes)
	if status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown model: status %d code %q", status, code)
	}
}

// TestStreamNDJSONChunkInvariance pins chunk invariance for the second wire
// format: the same NDJSON body split at any server-side chunk size yields
// byte-identical verdict lines.
func TestStreamNDJSONChunkInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(120, 3)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=3")

	body := ndjsonBody(t, st.Attrs, dsRows(bench.Dirty, 50), false)
	base := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?chunk=64", "application/x-ndjson", body)
	if base.status != http.StatusOK || base.errLine != "" || len(base.raw) != 50 {
		t.Fatalf("stream status %d err %q lines %d", base.status, base.errLine, len(base.raw))
	}
	for _, chunk := range []string{"1", "7", "50"} {
		got := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream?chunk="+chunk, "application/x-ndjson", body)
		if got.status != http.StatusOK || got.errLine != "" {
			t.Fatalf("chunk=%s status %d err %q", chunk, got.status, got.errLine)
		}
		if len(got.raw) != len(base.raw) {
			t.Fatalf("chunk=%s returned %d lines, want %d", chunk, len(got.raw), len(base.raw))
		}
		for i := range base.raw {
			if got.raw[i] != base.raw[i] {
				t.Fatalf("chunk=%s line %d differs", chunk, i)
			}
		}
	}
}

// TestStreamSchemaMappedCSV: a permuted-superset CSV stream body scores
// byte-identically to the schema-ordered body (the stream endpoint shares
// the mapped upload path).
func TestStreamSchemaMappedCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(120, 3)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=3")
	attrs := st.Attrs
	rows := dsRows(bench.Dirty, 40)

	want := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, attrs, rows))
	if want.status != http.StatusOK || want.errLine != "" {
		t.Fatalf("identity stream status %d err %q", want.status, want.errLine)
	}

	mapAttrs := append([]string{attrs[len(attrs)-1], "extra"}, attrs[:len(attrs)-1]...)
	mapRows := make([][]string, len(rows))
	for k, r := range rows {
		mapRows[k] = append([]string{r[len(r)-1], "E"}, r[:len(r)-1]...)
	}
	got := postStream(t, ts.URL+"/v1/models/"+st.ID+"/stream", "text/csv", rowsCSV(t, mapAttrs, mapRows))
	if got.status != http.StatusOK || got.errLine != "" {
		t.Fatalf("mapped stream status %d err %q", got.status, got.errLine)
	}
	if len(got.raw) != len(want.raw) {
		t.Fatalf("mapped stream returned %d lines, want %d", len(got.raw), len(want.raw))
	}
	for i := range want.raw {
		if got.raw[i] != want.raw[i] {
			t.Fatalf("mapped stream line %d differs from the schema-ordered body", i)
		}
	}
}
