package zeroed

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/feature"
	"repro/internal/nn"
)

// TestScoreDedupEquivalence pins the dedup cache's exactness contract:
// scoring with the cache on is bit-identical — every verdict, every score
// bit — to scoring with it off, across shard counts.
func TestScoreDedupEquivalence(t *testing.T) {
	benches := detBenches()
	if testing.Short() {
		benches = benches[:1]
	}
	for _, bench := range benches {
		t.Run(bench.Name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				on := detConfig(2, shards)
				off := on
				off.DisableScoreDedup = true
				a, err := New(on).DetectOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				b, err := New(off).DetectOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, "dedup-on-vs-off", a, b)
			}
		})
	}
}

// scorerFixture builds a trained shardScorer over a small real dataset.
func scorerFixture(t testing.TB, dedup bool) (*shardScorer, int) {
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
	var depCols [][]int
	if dedup {
		depCols = make([][]int, m)
		for j := range depCols {
			depCols[j] = ext.DepCols(j)
		}
	}
	return newShardScorer(ext, mlp, d, depCols, 0.4, newMatrix(n, m), newMask(d), nil), n
}

// TestFusedScoringZeroAllocSteadyState is the hot-path allocation guard:
// once the dedup cache is warm, scoring a cell performs zero allocations —
// and with dedup disabled the fused tile path is allocation-free from the
// first row.
func TestFusedScoringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode bypasses sync.Pool caching; alloc counts are meaningless")
	}
	for _, tc := range []struct {
		name  string
		dedup bool
	}{
		{"dedup-warm", true},
		{"dedup-off", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, n := scorerFixture(t, tc.dedup)
			// Warm pass: fills the dedup cache (and the nn scratch pool).
			sc.scoreRows(context.Background(), 0, n)
			if allocs := testing.AllocsPerRun(50, func() { sc.scoreRows(context.Background(), 0, n) }); allocs != 0 {
				t.Errorf("steady-state scoring allocates %.2f times per %d-row pass, want 0", allocs, n)
			}
		})
	}
}

// TestShardScorerDedupMatchesDirect compares every cached score against a
// direct RowFeaturesInto+PredictInto computation, cell by cell.
func TestShardScorerDedupMatchesDirect(t *testing.T) {
	sc, n := scorerFixture(t, true)
	ref, _ := scorerFixture(t, false)
	sc.scoreRows(context.Background(), 0, n)
	ref.scoreRows(context.Background(), 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < sc.m; j++ {
			if sc.scores[i][j] != ref.scores[i][j] {
				t.Fatalf("cell (%d,%d): dedup score %v != direct score %v",
					i, j, sc.scores[i][j], ref.scores[i][j])
			}
			if sc.pred[i][j] != ref.pred[i][j] {
				t.Fatalf("cell (%d,%d): dedup verdict differs", i, j)
			}
		}
	}
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
