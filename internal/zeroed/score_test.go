package zeroed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/table"
)

// scoreDirect is the scoring reference: every row featurized with
// RowFeaturesInto and scored with PredictInto, with no cache and no shards.
func scoreDirect(ext *feature.Extractor, mlp *nn.MLP, d *table.Dataset, threshold float64) ([][]float64, [][]bool) {
	n, m := d.NumRows(), d.NumCols()
	scores, pred := newMatrix(n, m), newMask(d)
	tile := make([]float64, m*ext.Dim())
	for i := 0; i < n; i++ {
		ext.RowFeaturesInto(i, tile)
		mlp.PredictInto(tile, m, scores[i])
		for j, p := range scores[i] {
			pred[i][j] = p >= threshold
		}
	}
	return scores, pred
}

// assertMatchesDirect compares scores and verdicts bit for bit against the
// scoreDirect reference.
func assertMatchesDirect(t *testing.T, name string, scores, want [][]float64, pred, wantPred [][]bool) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(scores[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: cell (%d,%d) scored %.17g, direct %.17g", name, i, j, scores[i][j], want[i][j])
			}
			if pred[i][j] != wantPred[i][j] {
				t.Fatalf("%s: cell (%d,%d) verdict differs from direct", name, i, j)
			}
		}
	}
}

// TestScoreShardCountsMatchDirect pins the scoring pass against its
// reference: one fitted model scores its fitting rows plus a row carrying a
// value the fit never saw, cut into 1, 2, 3, 4 and n row shards, twice per
// count (cold, then served from a warm model cache), and every cell must
// equal scoreDirect bit for bit.
func TestScoreShardCountsMatchDirect(t *testing.T) {
	ctx := context.Background()
	bench := detBenches()[0]
	m, err := New(detConfig(2)).FitOn(ctx, nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	sd := m.bind()
	for i := 0; i < bench.Dirty.NumRows(); i++ {
		sd.MustAppendRow(bench.Dirty.Row(i))
	}
	novel := bench.Dirty.Row(0)
	novel[0] = "shard-test-novel-value"
	sd.MustAppendRow(novel)
	ext := m.ext.Rebind(sd)
	n, cols := sd.NumRows(), sd.NumCols()
	want, wantPred := scoreDirect(ext, m.mlp, sd, m.cfg.Threshold)
	pool := NewPool(2)
	for _, shards := range []int{1, 2, 3, 4, n} {
		cache := newSharedScoreCache(m.dicts)
		for _, pass := range []string{"cold", "warm"} {
			scores, pred := newMatrix(n, cols), newMask(sd)
			scoreCells(ctx, pool, ext, m.mlp, sd, m.cfg.Threshold, shards, pred, scores, cache)
			assertMatchesDirect(t, fmt.Sprintf("shards=%d/%s", shards, pass), scores, want, pred, wantPred)
		}
	}
}

// scorerFixture builds a trained shardScorer over a small real dataset.
func scorerFixture(t testing.TB) (*shardScorer, int) {
	t.Helper()
	bench := datasets.Hospital(120, 3)
	d := bench.Dirty
	ext := feature.NewExtractor(d, feature.Config{EmbedDim: 8, CorrK: 2})
	dim := ext.Dim()
	// Train a tiny MLP on synthetic two-class data of the right width; the
	// scorer only needs a fitted model, not a good one.
	rng := rand.New(rand.NewSource(5))
	const nTrain = 24
	X := make([]float64, nTrain*dim)
	y := make([]float64, nTrain)
	for i := range X {
		X[i] = rng.Float64()
	}
	for i := 0; i < nTrain; i += 2 {
		y[i] = 1
	}
	cfg := nn.Config{Hidden1: 8, Hidden2: 4, Epochs: 2, Seed: 1}
	mlp := nn.New(dim, cfg)
	if _, err := mlp.Train(context.Background(), X, nTrain, y, 0); err != nil {
		t.Fatal(err)
	}
	n, m := d.NumRows(), d.NumCols()
	depCols := make([][]int, m)
	dicts := make([][]string, m)
	for j := range depCols {
		depCols[j] = ext.DepCols(j)
		dicts[j] = d.Dict(j)
	}
	return newShardScorer(ext, mlp, d, depCols, 0.4, newMatrix(n, m), newMask(d), newSharedScoreCache(dicts)), n
}

// TestFusedScoringZeroAllocSteadyState is the hot-path allocation guard:
// once the dedup cache is warm, scoring a cell performs zero allocations.
func TestFusedScoringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode bypasses sync.Pool caching; alloc counts are meaningless")
	}
	t.Run("dedup-warm", func(t *testing.T) {
		sc, n := scorerFixture(t)
		// Warm pass: fills the dedup cache (and the nn scratch pool).
		sc.scoreRows(context.Background(), 0, n)
		if allocs := testing.AllocsPerRun(50, func() { sc.scoreRows(context.Background(), 0, n) }); allocs != 0 {
			t.Errorf("steady-state scoring allocates %.2f times per %d-row pass, want 0", allocs, n)
		}
	})
}

// TestShardScorerDedupMatchesDirect compares every cached score against
// scoreDirect, cell by cell, and checks that the cache deduplicates.
func TestShardScorerDedupMatchesDirect(t *testing.T) {
	sc, n := scorerFixture(t)
	sc.scoreRows(context.Background(), 0, n)
	want, wantPred := scoreDirect(sc.ext, sc.mlp, sc.d, sc.threshold)
	assertMatchesDirect(t, "dedup", sc.scores, want, sc.pred, wantPred)
	// The cache must actually be deduplicating on this replicated dataset.
	cached := 0
	for j := range sc.caches {
		cached += len(sc.caches[j])
	}
	if cached >= n*sc.m {
		t.Errorf("dedup cache holds %d entries for %d cells — no dedup happened", cached, n*sc.m)
	}
}

// BenchmarkScoreRowsOnWarm measures one warm scoring request: 100 rows the
// model was fitted on, after a warm-up call has filled the model-lifetime
// score cache, so B/op is the per-request set-up (binding, shard scorers,
// result matrices) rather than featurization or inference.
func BenchmarkScoreRowsOnWarm(b *testing.B) {
	m, bench := fitStreamModel(b)
	rows := benchRows(bench, 100)
	pool := NewPool(2)
	ctx := context.Background()
	if _, err := m.ScoreRowsOn(ctx, pool, rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := m.ScoreRowsOn(ctx, pool, rows); err != nil {
			b.Fatal(err)
		}
	}
}
