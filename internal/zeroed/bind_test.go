package zeroed

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/table"
)

// bodyCSV renders rows [lo, hi) of d as a CSV upload body, with cell (0, 0)
// replaced by novel when it is non-empty.
func bodyCSV(t testing.TB, d *table.Dataset, lo, hi int, novel string) []byte {
	t.Helper()
	rows := make([]int, hi-lo)
	for i := range rows {
		rows[i] = lo + i
	}
	body := d.SubsetRows(rows)
	if novel != "" {
		body.SetValue(0, 0, novel)
	}
	var buf bytes.Buffer
	if err := body.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bindCSV loads a CSV body straight into a Bind of m, as the score and
// repair routes do.
func bindCSV(t testing.TB, m *Model, data []byte) *table.Dataset {
	t.Helper()
	src, err := table.NewCSVSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	st, err := table.NewStreamInto(m.Bind(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReadAll(); err != nil {
		t.Fatal(err)
	}
	return st.Dataset()
}

// readCSV loads a CSV body into a fresh dataset of its own.
func readCSV(t testing.TB, data []byte) *table.Dataset {
	t.Helper()
	d, err := table.Read("body", table.FormatCSV, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// firstRows returns the row indices [0, n).
func firstRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestScoreOnBoundMatchesRead: a body loaded straight into a model's Bind
// scores bit-identically to the same bytes loaded by table.Read and
// re-interned by ScoreOn, cold (empty warm caches) and warm, on a body of
// fitted and held-out rows carrying a value the fit never saw. Only the
// re-intern path opens a score.bind span. A body bound to one model and
// scored by another is re-interned, not read by the first model's IDs.
func TestScoreOnBoundMatchesRead(t *testing.T) {
	ctx := context.Background()
	fit := datasets.Hospital(240, 5)
	a, err := New(detConfig(2)).FitOn(ctx, nil, fit.Dirty.SubsetRows(firstRows(160)))
	if err != nil {
		t.Fatal(err)
	}
	readModel, err := ModelFromState(a.State())
	if err != nil {
		t.Fatal(err)
	}
	body := bodyCSV(t, fit.Dirty, 120, 200, "bound-test-novel-value")
	for _, pass := range []string{"cold", "warm"} {
		got, err := a.ScoreOn(ctx, nil, bindCSV(t, a, body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := readModel.ScoreOn(ctx, nil, readCSV(t, body))
		if err != nil {
			t.Fatal(err)
		}
		assertScoresIdentical(t, pass, want, got)
	}

	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	for _, c := range []struct {
		name   string
		d      *table.Dataset
		rebind bool
	}{
		{"bound", bindCSV(t, a, body), false},
		{"read", readCSV(t, body), true},
		{"bound-to-restored-twin", bindCSV(t, readModel, body), true},
	} {
		tctx, tr := obs.NewTrace(ctx, "score")
		if _, err := a.ScoreOn(tctx, nil, c.d); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if got := tr.Tree().Find("score.bind") != nil; got != c.rebind {
			t.Errorf("%s: score.bind span present = %v, want %v", c.name, got, c.rebind)
		}
	}
	obs.SetEnabled(prev)

	// Model b has other dictionaries: the IDs of a body bound to a mean
	// other values to it, so reading them as they are would misscore.
	b, err := New(detConfig(2)).FitOn(ctx, nil, datasets.Hospital(160, 6).Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ScoreOn(ctx, nil, bindCSV(t, a, body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.ScoreOn(ctx, nil, readCSV(t, body))
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "bound-to-other-model", want, got)
}

// assertSameRows requires two datasets to hold the same cells under the
// same value IDs and dictionary sizes.
func assertSameRows(t *testing.T, name string, want, got *table.Dataset) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: %d rows, want %d", name, got.NumRows(), want.NumRows())
	}
	for j := 0; j < want.NumCols(); j++ {
		if want.DictSize(j) != got.DictSize(j) {
			t.Fatalf("%s: col %d dictionary holds %d values, want %d", name, j, got.DictSize(j), want.DictSize(j))
		}
		for i := 0; i < want.NumRows(); i++ {
			if want.ValueID(i, j) != got.ValueID(i, j) || want.Value(i, j) != got.Value(i, j) {
				t.Fatalf("%s: cell (%d,%d) = %q#%d, want %q#%d", name, i, j,
					got.Value(i, j), got.ValueID(i, j), want.Value(i, j), want.ValueID(i, j))
			}
		}
	}
}

// TestStreamFoldAfterInstall: a chunk bound to the old model and folded
// after Install swapped in a successor with other dictionaries leaves the
// same drift gauges (bit for bit) and the same accumulator (cells and IDs)
// as a chunk the successor bound and folded itself.
func TestStreamFoldAfterInstall(t *testing.T) {
	ctx := context.Background()
	old, bench := fitStreamModel(t)
	succ, err := New(Config{LabelRate: 0.08, EmbedDim: 16, Seed: 8, Workers: 2}).
		FitOn(ctx, nil, datasets.Hospital(150, 9).Dirty)
	if err != nil {
		t.Fatal(err)
	}
	rows := benchRows(bench, 60)
	rows[3][1] = "fold-test-novel-value"

	swapped, err := NewStreamScorer(old, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := old.bindRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := swapped.Install(succ); err != nil {
		t.Fatal(err)
	}
	swapped.mu.Lock()
	got, err := swapped.foldLocked(sd)
	swapped.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	direct, err := NewStreamScorer(succ, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := direct.ScoreChunk(ctx, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Drift.Rows != want.Drift.Rows ||
		math.Float64bits(got.Drift.UnseenRate) != math.Float64bits(want.Drift.UnseenRate) ||
		math.Float64bits(got.Drift.Shift) != math.Float64bits(want.Drift.Shift) {
		t.Fatalf("fold after Install reads %+v, want %+v", got, want)
	}
	assertSameRows(t, "accumulator", direct.accum, swapped.accum)

	// The check has teeth only if the two models give some cell other IDs.
	differs := false
	for j := 0; j < sd.NumCols() && !differs; j++ {
		for i := 0; i < sd.NumRows(); i++ {
			if sd.ValueID(i, j) != direct.accum.ValueID(i, j) {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("old and successor dictionaries agree on every ID; the fixture cannot catch a misread fold")
	}
}

// BenchmarkIngestScore times one served score body, a 100-row CSV, against
// Hospital(2000, 1) fitted on rows 0–999 with Config{Seed: 1}: "read"
// parses it into a fresh dataset with table.Read and ScoreOn re-interns it;
// "bind" loads it straight into the model's Bind and ScoreOn scores it as
// it is. Warm bodies are fitted rows, cold bodies held-out rows.
func BenchmarkIngestScore(b *testing.B) {
	ctx := context.Background()
	bench := datasets.Hospital(2000, 1)
	m, err := New(Config{Seed: 1}).FitOn(ctx, nil, bench.Dirty.SubsetRows(firstRows(1000)))
	if err != nil {
		b.Fatal(err)
	}
	pool := NewPool(2)
	for _, body := range []struct {
		name string
		lo   int
	}{{"warm", 0}, {"cold", 1000}} {
		data := bodyCSV(b, bench.Dirty, body.lo, body.lo+100, "")
		b.Run(body.name+"/read", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := m.ScoreOn(ctx, pool, readCSV(b, data)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/bind", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := m.ScoreOn(ctx, pool, bindCSV(b, m, data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
