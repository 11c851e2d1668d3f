package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// postModelCSV posts a CSV body to a model endpoint and decodes into out
// when the status matches want.
func postModelCSV(t *testing.T, url string, body []byte, want int, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("%s: status %d, want %d: %s", url, resp.StatusCode, want, raw.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestModelFitScoreMatchesDetector pins the registry's core guarantee:
// fitting a model over HTTP and scoring the same CSV against it returns
// verdicts and float64 score bits identical to a direct DetectOn on the same
// bytes — and the score call, which skips the fit phase entirely, reports a
// runtime far below the fit's.
func TestModelFitScoreMatchesDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over HTTP")
	}
	ts, _ := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(220, 7)
	csv := benchCSV(t, bench.Dirty)

	var st ModelStatus
	postModelCSV(t, ts.URL+"/v1/models?seed=5&name=hosp", csv, http.StatusCreated, &st)
	if st.ID == "" || st.FitRows != bench.Dirty.NumRows() {
		t.Fatalf("bad model status: %+v", st)
	}

	var sr ScoreResult
	postModelCSV(t, ts.URL+"/v1/models/"+st.ID+"/score", csv, http.StatusOK, &sr)

	// The service ingests through the same CSV path, so compare against a
	// DetectOn over a re-parsed dataset carrying the same name (the simulated
	// LLM derives its streams from it, exactly like the CLI does).
	src, err := table.NewCSVSource(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ingestSource("hosp", src, ingestLimits{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := zeroed.New(zeroed.Config{LabelRate: 0.05, CorrK: 2, Seed: 5, Workers: 2}).DetectOn(context.Background(), nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Pred) != len(ref.Pred) {
		t.Fatalf("scored %d rows, want %d", len(sr.Pred), len(ref.Pred))
	}
	for i := range ref.Pred {
		for j := range ref.Pred[i] {
			if sr.Pred[i][j] != ref.Pred[i][j] {
				t.Fatalf("verdict differs at (%d,%d)", i, j)
			}
			if math.Float64bits(sr.Scores[i][j]) != math.Float64bits(ref.Scores[i][j]) {
				t.Fatalf("score bits differ at (%d,%d)", i, j)
			}
		}
	}
	if sr.ScoreMS > st.FitMS && st.FitMS > 0 {
		t.Errorf("score took %dms, fit %dms: scoring should not retrain", sr.ScoreMS, st.FitMS)
	}

	// Fresh rows with unseen values score without refitting.
	fresh := []byte(strings.Join(bench.Dirty.Attrs, ",") + "\n")
	row := make([]string, bench.Dirty.NumCols())
	for j := range row {
		row[j] = "novel-value"
	}
	fresh = append(fresh, []byte(strings.Join(row, ",")+"\n")...)
	var sf ScoreResult
	postModelCSV(t, ts.URL+"/v1/models/"+st.ID+"/score", fresh, http.StatusOK, &sf)
	if sf.Rows != 1 {
		t.Fatalf("scored %d fresh rows, want 1", sf.Rows)
	}

	// A schema mismatch is a structured 400, not a panic.
	postModelCSV(t, ts.URL+"/v1/models/"+st.ID+"/score", []byte("a,b\n1,2\n"), http.StatusBadRequest, nil)

	// Listing and metrics account for the model.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 1 || listing.Models[0].ID != st.ID {
		t.Fatalf("listing = %+v", listing.Models)
	}
	met, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(met.Body)
	met.Body.Close()
	for _, want := range []string{
		"zeroedd_models_current 1",
		"zeroedd_models_fitted_total 1",
		"zeroedd_score_seconds_count 2",
		`zeroedd_fit_stage_seconds{stage="extractor"}`,
		`zeroedd_fit_stage_seconds{stage="criteria"}`,
		`zeroedd_fit_stage_seconds{stage="sample_label"}`,
		`zeroedd_fit_stage_seconds{stage="traindata"}`,
		`zeroedd_fit_stage_seconds{stage="matrix"}`,
		`zeroedd_fit_stage_seconds{stage="train"}`,
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// DELETE evicts; scoring afterwards is a 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	postModelCSV(t, ts.URL+"/v1/models/"+st.ID+"/score", csv, http.StatusNotFound, nil)
}

// TestModelPersistenceAcrossRestarts: with ModelDir set, a fitted model's
// artifact survives a server restart and scores identically afterwards.
func TestModelPersistenceAcrossRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over HTTP")
	}
	dir := t.TempDir()
	bench := datasets.Hospital(150, 3)
	csv := benchCSV(t, bench.Dirty)

	ts1, _ := testServer(t, Config{Workers: 2, ModelDir: dir})
	var st ModelStatus
	postModelCSV(t, ts1.URL+"/v1/models?seed=3", csv, http.StatusCreated, &st)
	var before ScoreResult
	postModelCSV(t, ts1.URL+"/v1/models/"+st.ID+"/score", csv, http.StatusOK, &before)
	if _, err := os.Stat(filepath.Join(dir, st.ID+artifactExt)); err != nil {
		t.Fatalf("artifact not persisted: %v", err)
	}

	// Drop a corrupt artifact alongside; the restart must skip it and count
	// the failure, not crash or refuse to start.
	if err := os.WriteFile(filepath.Join(dir, "m-999999"+artifactExt), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, _ := testServer(t, Config{Workers: 2, ModelDir: dir})
	var after ScoreResult
	postModelCSV(t, ts2.URL+"/v1/models/"+st.ID+"/score", csv, http.StatusOK, &after)
	if len(after.Pred) != len(before.Pred) {
		t.Fatalf("restored model scored %d rows, want %d", len(after.Pred), len(before.Pred))
	}
	for i := range before.Pred {
		for j := range before.Pred[i] {
			if before.Pred[i][j] != after.Pred[i][j] {
				t.Fatalf("restored verdict differs at (%d,%d)", i, j)
			}
			if math.Float64bits(before.Scores[i][j]) != math.Float64bits(after.Scores[i][j]) {
				t.Fatalf("restored score bits differ at (%d,%d)", i, j)
			}
		}
	}
	met, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(met.Body)
	met.Body.Close()
	if !strings.Contains(mbuf.String(), "zeroedd_model_load_failures_total 1") {
		t.Error("corrupt artifact not counted as load failure")
	}
}

// TestModelRegistryBounds: the registry cap rejects fits with a structured
// 409, unknown IDs are 404s, and malformed uploads are 400s.
func TestModelRegistryBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("fits models over HTTP")
	}
	ts, _ := testServer(t, Config{Workers: 1, MaxModels: 1})
	bench := datasets.Hospital(100, 3)
	csv := benchCSV(t, bench.Dirty)
	var st ModelStatus
	postModelCSV(t, ts.URL+"/v1/models", csv, http.StatusCreated, &st)
	postModelCSV(t, ts.URL+"/v1/models", csv, http.StatusConflict, nil)

	postModelCSV(t, ts.URL+"/v1/models/m-404404/score", csv, http.StatusNotFound, nil)
	resp, err := http.Get(ts.URL + "/v1/models/m-404404")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model info status %d", resp.StatusCode)
	}
	postModelCSV(t, ts.URL+"/v1/models/"+st.ID+"/score", []byte("\x00\xff"), http.StatusBadRequest, nil)
	postModelCSV(t, ts.URL+"/v1/models?seed=abc", csv, http.StatusBadRequest, nil)
}
