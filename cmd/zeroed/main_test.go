package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// opts builds a runOpts with the flag defaults, then applies mod.
func opts(mod func(*runOpts)) runOpts {
	o := runOpts{
		method: "zeroed", model: "Qwen2.5-72b",
		labelRate: 0.05, corrK: 2, seed: 1,
	}
	if mod != nil {
		mod(&o)
	}
	return o
}

func TestRunOnGeneratedDataset(t *testing.T) {
	dir := t.TempDir()
	mask := filepath.Join(dir, "mask.csv")
	repaired := filepath.Join(dir, "repaired.csv")
	err := run(context.Background(), opts(func(o *runOpts) {
		o.dataset = "Hospital"
		o.size = 250
		o.labelRate = 0.08
		o.seed = 5
		o.outPath = mask
		o.repairOut = repaired
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{mask, repaired} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("expected output file %s: %v", p, err)
		}
	}
	b, err := os.ReadFile(mask)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "ProviderNumber") {
		t.Error("mask CSV should carry the schema header")
	}
}

func TestRunOnCSVFiles(t *testing.T) {
	dir := t.TempDir()
	dirty := filepath.Join(dir, "dirty.csv")
	clean := filepath.Join(dir, "clean.csv")
	var db, cb strings.Builder
	db.WriteString("Grade,Score\n")
	cb.WriteString("Grade,Score\n")
	for i := 0; i < 120; i++ {
		cb.WriteString("A,90\n")
		if i == 3 {
			db.WriteString("A,9000\n") // outlier
		} else {
			db.WriteString("A,90\n")
		}
	}
	if err := os.WriteFile(dirty, []byte(db.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(clean, []byte(cb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), opts(func(o *runOpts) {
		o.dirtyPath = dirty
		o.cleanPath = clean
		o.method = "dboost"
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(context.Background(), opts(nil)); err == nil {
		t.Error("missing input must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.dataset = "NoSuchSet" })); err == nil {
		t.Error("unknown dataset must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.dataset = "Hospital"; o.size = 100; o.model = "NoSuchModel" })); err == nil {
		t.Error("unknown model must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.dataset = "Hospital"; o.size = 100; o.method = "nosuchmethod" })); err == nil {
		t.Error("unknown method must error")
	}
	// Raha without -clean has no oracle.
	dir := t.TempDir()
	dirty := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(dirty, []byte("A\nx\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.dirtyPath = dirty; o.method = "raha" })); err == nil {
		t.Error("raha without clean labels must error")
	}
}

func TestRunBatchReplicas(t *testing.T) {
	err := run(context.Background(), opts(func(o *runOpts) {
		o.dataset = "Hospital"
		o.size = 150
		o.batch = "2"
		o.workers = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchCSVList(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"a.csv", "b.csv"} {
		var sb strings.Builder
		sb.WriteString("Grade,Score\n")
		for i := 0; i < 80; i++ {
			if i == 2 {
				sb.WriteString("A,9000\n")
			} else {
				sb.WriteString("A,90\n")
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	err := run(context.Background(), opts(func(o *runOpts) { o.batch = strings.Join(paths, ",") }))
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunNDJSONInput: the same rows ingested as CSV and as NDJSON (auto-
// detected from the extension, or forced with -format on a misnamed file)
// produce byte-identical masks.
func TestRunNDJSONInput(t *testing.T) {
	dir := t.TempDir()
	var csvB, ndB, cleanB strings.Builder
	ndB.WriteString(`["Grade","Score"]` + "\n")
	csvB.WriteString("Grade,Score\n")
	cleanB.WriteString("Grade,Score\n")
	for i := 0; i < 120; i++ {
		cleanB.WriteString("A,90\n")
		if i == 3 {
			csvB.WriteString("A,9000\n")
			ndB.WriteString(`["A","9000"]` + "\n")
		} else {
			csvB.WriteString("A,90\n")
			ndB.WriteString(`["A","90"]` + "\n")
		}
	}
	files := map[string]string{
		"dirty.csv":    csvB.String(),
		"dirty.ndjson": ndB.String(),
		"dirty.dat":    ndB.String(), // wrong extension; -format must rescue it
		"clean.csv":    cleanB.String(),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	masks := make(map[string][]byte)
	for name, in := range map[string]struct{ file, format string }{
		"csv":           {"dirty.csv", ""},
		"ndjson-auto":   {"dirty.ndjson", ""},
		"ndjson-forced": {"dirty.dat", "ndjson"},
	} {
		mask := filepath.Join(dir, name+".mask.csv")
		err := run(context.Background(), opts(func(o *runOpts) {
			o.dirtyPath = filepath.Join(dir, in.file)
			o.cleanPath = filepath.Join(dir, "clean.csv")
			o.format = in.format
			o.method = "dboost"
			o.outPath = mask
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(mask)
		if err != nil {
			t.Fatal(err)
		}
		masks[name] = b
	}
	if string(masks["ndjson-auto"]) != string(masks["csv"]) {
		t.Error("auto-detected NDJSON mask differs from the CSV mask")
	}
	if string(masks["ndjson-forced"]) != string(masks["csv"]) {
		t.Error("-format ndjson mask differs from the CSV mask")
	}
}

func TestRunBatchValidation(t *testing.T) {
	if err := run(context.Background(), opts(func(o *runOpts) { o.batch = "3" })); err == nil {
		t.Error("replica batch without -dataset must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.batch = "2"; o.dataset = "Hospital"; o.method = "dboost" })); err == nil {
		t.Error("batch with a baseline method must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.batch = " , " })); err == nil {
		t.Error("batch listing no paths must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.batch = "0"; o.dataset = "Hospital" })); err == nil {
		t.Error("batch replica count of 0 must error")
	}
	if err := run(context.Background(), opts(func(o *runOpts) { o.batch = "x.csv"; o.dataset = "Hospital" })); err == nil ||
		!strings.Contains(err.Error(), "CSV list") {
		t.Errorf("-dataset with a -batch CSV list must be rejected, got %v", err)
	}
	for _, mod := range []func(*runOpts){
		func(o *runOpts) { o.dirtyPath = "x.csv" },
		func(o *runOpts) { o.cleanPath = "x.csv" },
		func(o *runOpts) { o.outPath = "x.csv" },
		func(o *runOpts) { o.repairOut = "x.csv" },
		func(o *runOpts) { o.format = "ndjson" },
		func(o *runOpts) { o.repairOut = "x.csv"; o.repairLog = "x.ndjson" },
	} {
		err := run(context.Background(), opts(func(o *runOpts) { o.batch = "2"; o.dataset = "Hospital"; mod(o) }))
		if err == nil || !strings.Contains(err.Error(), "-batch") {
			t.Errorf("single-run flag combined with -batch must be rejected, got %v", err)
		}
	}
}

func TestBaselineByNameAll(t *testing.T) {
	for _, name := range []string{"dboost", "nadeef", "katara", "fmed"} {
		m, err := baselineByName(name, llm.Qwen72B, nil, nil, nil, nil)
		if err != nil || m == nil {
			t.Errorf("baselineByName(%s) = %v, %v", name, m, err)
		}
	}
}

// TestRunModelOutIn: -model-out fits and persists an artifact, -model-in
// scores with it and produces the identical mask without refitting.
func TestRunModelOutIn(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "hospital.zedm")
	fitMask := filepath.Join(dir, "fit_mask.csv")
	scoreMask := filepath.Join(dir, "score_mask.csv")
	base := func(o *runOpts) {
		o.dataset = "Hospital"
		o.size = 200
		o.labelRate = 0.08
		o.seed = 5
	}
	if err := run(context.Background(), opts(func(o *runOpts) {
		base(o)
		o.modelOut = artifact
		o.outPath = fitMask
	})); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(artifact); err != nil || fi.Size() == 0 {
		t.Fatalf("artifact missing: %v", err)
	}
	if err := run(context.Background(), opts(func(o *runOpts) {
		base(o)
		o.modelIn = artifact
		o.outPath = scoreMask
	})); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fitMask)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(scoreMask)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("score-only mask differs from fit-time mask")
	}
}

// TestRunModelFlagValidation: contradictory model-flag combinations fail
// fast.
func TestRunModelFlagValidation(t *testing.T) {
	for name, mod := range map[string]func(*runOpts){
		"in+out":            func(o *runOpts) { o.dataset = "Hospital"; o.modelIn = "a"; o.modelOut = "b" },
		"non-zeroed":        func(o *runOpts) { o.dataset = "Hospital"; o.modelIn = "a"; o.method = "dboost" },
		"batch+out":         func(o *runOpts) { o.dataset = "Hospital"; o.batch = "2"; o.modelOut = "b" },
		"batch+in":          func(o *runOpts) { o.dataset = "Hospital"; o.batch = "2"; o.modelIn = "a" },
		"missing-file":      func(o *runOpts) { o.dataset = "Hospital"; o.size = 50; o.modelIn = "/nonexistent.zedm" },
		"bad-format":        func(o *runOpts) { o.dataset = "Hospital"; o.size = 50; o.format = "xml" },
		"log-without-pass":  func(o *runOpts) { o.dataset = "Hospital"; o.size = 50; o.repairLog = "c.ndjson" },
		"stream+repair-log": func(o *runOpts) { o.stream = true; o.modelIn = "a"; o.repairOut = ""; o.repairLog = "c.ndjson" },
	} {
		if err := run(context.Background(), opts(mod)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestRunScoreOnlyRepair: -model-in with -repair and -repair-log runs the
// detect→repair loop with no refit, writing the corrected CSV plus a change
// log whose lines carry the served endpoint's exact fields.
func TestRunScoreOnlyRepair(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "hospital.zedm")
	repaired := filepath.Join(dir, "repaired.csv")
	changeLog := filepath.Join(dir, "changes.ndjson")
	base := func(o *runOpts) {
		o.dataset = "Hospital"
		o.size = 150
		o.labelRate = 0.08
		o.seed = 5
	}
	if err := run(context.Background(), opts(func(o *runOpts) { base(o); o.modelOut = artifact })); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts(func(o *runOpts) {
		base(o)
		o.modelIn = artifact
		o.repairOut = repaired
		o.repairLog = changeLog
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(repaired); err != nil {
		t.Fatalf("repaired CSV missing: %v", err)
	}
	b, err := os.ReadFile(changeLog)
	if err != nil {
		t.Fatalf("change log missing: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("change log is empty; the benchmark should have repairable errors")
	}
	for i, line := range lines {
		var c struct {
			Row      *int    `json:"row"`
			Col      *int    `json:"col"`
			Attr     *string `json:"attr"`
			Old      *string `json:"old"`
			New      *string `json:"new"`
			Strategy *string `json:"strategy"`
		}
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("change-log line %d is not JSON: %v", i, err)
		}
		if c.Row == nil || c.Col == nil || c.Attr == nil || c.Old == nil || c.New == nil ||
			c.Strategy == nil || *c.Strategy == "" {
			t.Fatalf("change-log line %d missing fields: %s", i, line)
		}
	}
}

// cliVerdict is the line zeroed -stream printed through json.Encoder before
// the verdict lines had one encoder. Its scores field has no omitempty,
// unlike the served line's; the two render alike because a scored row
// always has scores.
type cliVerdict struct {
	Row     int       `json:"row"`
	Version int       `json:"version"`
	Pred    []bool    `json:"pred"`
	Scores  []float64 `json:"scores"`
}

// TestRunStreamStdoutBytes pins zeroed -stream's stdout to the json.Encoder
// rendering of cliVerdict, line for line, on rows that mix seen and unseen
// values.
func TestRunStreamStdoutBytes(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "hospital.zedm")
	if err := run(context.Background(), opts(func(o *runOpts) {
		o.dataset, o.size, o.labelRate, o.seed = "Hospital", 120, 0.08, 5
		o.modelOut = artifact
	})); err != nil {
		t.Fatal(err)
	}

	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	err = run(context.Background(), opts(func(o *runOpts) {
		o.stream, o.modelIn, o.dataset, o.size, o.seed, o.streamChunk = true, artifact, "Hospital", 90, 9, 32
	}))
	os.Stdout = saved
	if cerr := stdout.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}

	m, err := model.LoadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := zeroed.NewStreamScorer(m, zeroed.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := datasets.Hospital(90, 9).Dirty.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	src, err := table.NewSource(table.FormatCSV, &csv)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if _, _, err := ss.ScoreSource(context.Background(), nil, src, 32,
		func(start int, res *zeroed.Result, cst zeroed.ChunkStatus) error {
			for i := range res.Pred {
				if len(res.Scores[i]) == 0 {
					return fmt.Errorf("row %d scored with no scores", start+i)
				}
				if err := enc.Encode(cliVerdict{start + i, cst.Version, res.Pred[i], res.Scores[i]}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("zeroed -stream printed %d bytes, json.Encoder renders %d; want them equal byte for byte", len(got), want.Len())
	}
}
