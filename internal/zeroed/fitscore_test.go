package zeroed

// Tests for the fit/score split: DetectOn must be exactly FitOn composed
// with ScoreOn (bit-identical verdicts and float64 score bits for any worker and
// shard count), ModelState must round-trip losslessly, and scoring new rows
// — including rows with values never seen during fitting — must be defined
// and deterministic.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
)

// assertScoresIdentical compares predictions and scores bit-for-bit without
// requiring the diagnostic fields (ScoreOn results carry none).
func assertScoresIdentical(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Pred) != len(b.Pred) || len(a.Scores) != len(b.Scores) {
		t.Fatalf("%s: result shape differs: %d/%d vs %d/%d rows",
			name, len(a.Pred), len(a.Scores), len(b.Pred), len(b.Scores))
	}
	for i := range a.Pred {
		for j := range a.Pred[i] {
			if a.Pred[i][j] != b.Pred[i][j] {
				t.Fatalf("%s: verdict differs at (%d,%d)", name, i, j)
			}
			if math.Float64bits(a.Scores[i][j]) != math.Float64bits(b.Scores[i][j]) {
				t.Fatalf("%s: score differs at (%d,%d): %.17g vs %.17g",
					name, i, j, a.Scores[i][j], b.Scores[i][j])
			}
		}
	}
}

// TestDetectEqualsFitScore pins the tentpole contract: DetectOn(ds) ≡
// ScoreOn(FitOn(ds), ds), for Workers∈{1,8} crossed with shard settings.
// DetectOn's own worker/shard invariance is pinned by
// TestWorkerAndShardInvariance, so one DetectOn reference per dataset
// suffices; -short trims the matrix to keep the race-enabled CI job inside
// its budget.
func TestDetectEqualsFitScore(t *testing.T) {
	benches := detBenches()
	configs := []struct{ workers, shards int }{{1, 1}, {8, 3}, {8, 0}, {1, 4}}
	if testing.Short() {
		benches = benches[:1]
		configs = configs[1:2] // one parallel config; full mode covers the matrix
	}
	for _, bench := range benches {
		t.Run(bench.Name, func(t *testing.T) {
			det, err := New(detConfig(2, 0)).DetectOn(context.Background(), nil, bench.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range configs {
				m, err := New(detConfig(tc.workers, tc.shards)).FitOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				scored, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/w%d-s%d", bench.Name, tc.workers, tc.shards)
				assertScoresIdentical(t, name, det, scored)
				if m.Info().SampledCells != det.SampledCells ||
					m.Info().TrainingCells != det.TrainingCells ||
					m.Info().AugmentedErrs != det.AugmentedErrs ||
					m.Info().CriteriaCount != det.CriteriaCount ||
					m.Info().Usage != det.Usage {
					t.Fatalf("%s: fit diagnostics differ from DetectOn's", name)
				}
			}
		})
	}
}

// TestModelStateRoundTrip: State -> ModelFromState is lossless for scoring —
// the restored model (whose memo tables are rebuilt from the dictionaries
// rather than copied) scores bit-identically, for Workers∈{1,8}.
func TestModelStateRoundTrip(t *testing.T) {
	bench := datasets.Hospital(180, 7)
	m, err := New(detConfig(2, 0)).FitOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ModelFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		restored.SetParallelism(workers, 0)
		got, err := restored.ScoreOn(context.Background(), nil, bench.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresIdentical(t, "restored", want, got)
	}
}

// TestScoreRowsMatchesScore: scoring the fitting rows through the raw-tuple
// API returns exactly the dataset-path verdicts, and unseen values take the
// cold path without panicking.
func TestScoreRowsMatchesScore(t *testing.T) {
	bench := datasets.Hospital(160, 5)
	d := bench.Dirty
	m, err := New(detConfig(2, 0)).FitOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ScoreOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, d.NumRows())
	for i := range rows {
		rows[i] = d.Row(i)
	}
	got, err := m.ScoreRowsOn(context.Background(), nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "score-rows", want, got)

	// Fresh rows with values the fit never interned: defined verdicts, and
	// deterministic across calls.
	novel := [][]string{
		append([]string(nil), rows[0]...),
		make([]string, d.NumCols()),
	}
	novel[0][0] = "value-never-seen-during-fit-xyzzy"
	for j := range novel[1] {
		novel[1][j] = "??totally-novel??"
	}
	a, err := m.ScoreRowsOn(context.Background(), nil, novel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.ScoreRowsOn(context.Background(), nil, novel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pred) != 2 {
		t.Fatalf("scored %d rows, want 2", len(a.Pred))
	}
	assertScoresIdentical(t, "novel-rows", a, b)
}

// TestScoreWarmCacheEquivalence pins the model-lifetime warm cache: a
// second ScoreOn call (served largely from scores the first call computed)
// is bit-identical to the first, to a dedup-disabled model's scoring, and
// to DetectOn — including rows carrying values the fit never saw, which are
// excluded from the shared cache by the stable-ID check.
func TestScoreWarmCacheEquivalence(t *testing.T) {
	bench := datasets.Hospital(200, 7)
	cfg := detConfig(4, 0)
	det, err := New(cfg).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg).FitOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := cfg
	cfgOff.DisableScoreDedup = true
	mOff, err := New(cfgOff).FitOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	off, err := mOff.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "cold-vs-detect", det, cold)
	assertScoresIdentical(t, "warm-vs-cold", cold, warm)
	assertScoresIdentical(t, "dedup-off", cold, off)

	novel := [][]string{bench.Dirty.Row(0), bench.Dirty.Row(1)}
	novel[1][0] = "warm-cache-novel-value"
	a, err := m.ScoreRowsOn(context.Background(), nil, novel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.ScoreRowsOn(context.Background(), nil, novel) // second call hits the warm cache
	if err != nil {
		t.Fatal(err)
	}
	c, err := mOff.ScoreRowsOn(context.Background(), nil, novel)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "novel-warm", a, b)
	assertScoresIdentical(t, "novel-dedup-off", a, c)
}

// TestScoreInputValidation: schema and arity violations are errors, not
// panics.
func TestScoreInputValidation(t *testing.T) {
	bench := datasets.Hospital(150, 5)
	m, err := New(detConfig(1, 0)).FitOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ScoreRowsOn(context.Background(), nil, [][]string{{"too", "short"}}); err == nil {
		t.Error("short row accepted")
	}
	other := table.New("other", []string{"a", "b"})
	other.MustAppendRow([]string{"1", "2"})
	if _, err := m.ScoreOn(context.Background(), nil, other); err == nil {
		t.Error("mismatched schema accepted")
	}
	if _, err := m.ScoreRowsOn(context.Background(), nil, nil); err == nil {
		t.Error("empty row set accepted")
	}
}

// TestFitDegenerate: a constant dataset yields a degenerate (label-replay)
// model whose ScoreOn still matches DetectOn on the fitting data, and whose
// state round-trips.
func TestFitDegenerate(t *testing.T) {
	d := table.New("const", []string{"a", "b"})
	for i := 0; i < 40; i++ {
		d.MustAppendRow([]string{"same", "thing"})
	}
	// Without verification there is no error augmentation, so an all-clean
	// labeling stays single-class and the fit degenerates to label replay.
	cfg := Config{Seed: 3, Workers: 2, DisableVerification: true}
	det, err := New(cfg).DetectOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg).FitOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Degenerate() {
		t.Fatal("constant dataset fitted a non-degenerate model")
	}
	scored, err := m.ScoreOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "degenerate", det, scored)
	restored, err := ModelFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.ScoreOn(context.Background(), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	assertScoresIdentical(t, "degenerate-restored", det, again)
}
