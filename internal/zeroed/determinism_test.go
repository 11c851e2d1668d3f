package zeroed

// The deterministic-parallelism suite: the engine promises that worker
// count (and with it the scoring-shard count, 4×Workers) and batch
// scheduling change wall-clock only — never results. These tests pin that promise bit-for-bit: predictions are
// compared cell by cell and scores both bitwise and as a score sum rendered
// to 17 significant digits (float64 round-trip precision).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
)

// detBenches are small Hospital and Beers subsets; both run fast enough for
// the race-enabled CI job while exercising every pipeline stage.
func detBenches() []*datasets.Bench {
	return []*datasets.Bench{
		datasets.Hospital(240, 7),
		datasets.Beers(260, 11),
	}
}

// detConfig is the suite's seeded base configuration.
func detConfig(workers int) Config {
	return Config{
		LabelRate: 0.08,
		EmbedDim:  16,
		Seed:      7,
		Workers:   workers,
	}
}

// scoreSum17 renders the ordered sum of every cell score to 17 significant
// digits — enough to distinguish any two different float64 values.
func scoreSum17(res *Result) string {
	var sum float64
	for _, row := range res.Scores {
		for _, s := range row {
			sum += s
		}
	}
	return fmt.Sprintf("%.17g", sum)
}

// assertResultsIdentical compares two results bit-for-bit: every verdict,
// every score (as raw float64 bits), and the diagnostics.
func assertResultsIdentical(t *testing.T, name string, a, b *Result) {
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
	if sa, sb := scoreSum17(a), scoreSum17(b); sa != sb {
		t.Fatalf("%s: score sums differ to 17 digits: %s vs %s", name, sa, sb)
	}
	if a.SampledCells != b.SampledCells || a.TrainingCells != b.TrainingCells ||
		a.AugmentedErrs != b.AugmentedErrs || a.CriteriaCount != b.CriteriaCount {
		t.Fatalf("%s: diagnostics differ: %+v vs %+v", name, a, b)
	}
	if a.Usage != b.Usage {
		t.Fatalf("%s: LLM usage differs: %+v vs %+v", name, a.Usage, b.Usage)
	}
}

// TestWorkerAndShardInvariance is the core determinism guarantee: seeded
// DetectOn produces byte-identical results for Workers 1, 3 and 8, which
// score in 4, 12 and 32 row shards. TestScoreShardCountsMatchDirect pins
// shard counts the worker axis does not reach.
func TestWorkerAndShardInvariance(t *testing.T) {
	for _, bench := range detBenches() {
		t.Run(bench.Name, func(t *testing.T) {
			ref, err := New(detConfig(1)).DetectOn(context.Background(), nil, bench.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{8, 3} {
				got, err := New(detConfig(workers)).DetectOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, fmt.Sprintf("workers%d", workers), ref, got)
			}
			t.Logf("%s: score sum %s invariant across workers and shards", bench.Name, scoreSum17(ref))
		})
	}
}

// TestDetectBatchMatchesDetect pins the batch guarantee: multiplexing
// several datasets over one shared pool returns, per dataset, exactly what
// an individual DetectOn returns. The first dataset fills two slots, which
// are detected concurrently: runs only read their input.
func TestDetectBatchMatchesDetect(t *testing.T) {
	benches := detBenches()
	benches = append(benches, benches[0])
	ds := make([]*table.Dataset, len(benches))
	for i, b := range benches {
		ds[i] = b.Dirty
	}
	det := New(detConfig(4))
	batch, err := det.DetectBatch(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range benches {
		solo, err := New(detConfig(2)).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "batch:"+b.Name, solo, batch[i])
	}
}

// TestWorkersNormalizedOnce: the Workers default is applied in the single
// withDefaults normalization spot.
func TestWorkersNormalizedOnce(t *testing.T) {
	if got, want := New(Config{}).Config().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", got, want)
	}
	if got := New(Config{Workers: -3}).Config().Workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative Workers normalized to %d, want GOMAXPROCS", got)
	}
	if got := New(Config{Workers: 5}).Config().Workers; got != 5 {
		t.Errorf("explicit Workers = %d, want 5", got)
	}
}

// TestShardRangesPartition: shardRanges covers [0, n) exactly once, in
// order, for a spread of shapes.
func TestShardRangesPartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 1}, {1, 1}, {1, 8}, {5, 2}, {7, 7}, {10, 3}, {100, 16}, {101, 16},
	} {
		ranges := shardRanges(tc.n, tc.shards)
		next := 0
		for _, r := range ranges {
			if r.lo != next || r.hi <= r.lo {
				t.Fatalf("shardRanges(%d,%d): bad range %+v at cursor %d", tc.n, tc.shards, r, next)
			}
			next = r.hi
		}
		if next != tc.n {
			t.Fatalf("shardRanges(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.shards, next, tc.n)
		}
		if len(ranges) > tc.shards {
			t.Fatalf("shardRanges(%d,%d) produced %d ranges", tc.n, tc.shards, len(ranges))
		}
	}
}

// TestPoolNestedForN exercises the shared pool under nesting (the
// DetectBatch shape) and checks full coverage without deadlock even when
// the budget is saturated.
func TestPoolNestedForN(t *testing.T) {
	pool := NewPool(3)
	outer, inner := 8, 64
	hits := make([][]int32, outer)
	for i := range hits {
		hits[i] = make([]int32, inner)
	}
	pool.forN(outer, func(i int) {
		pool.forN(inner, func(j int) {
			hits[i][j]++
		})
	})
	for i := range hits {
		for j := range hits[i] {
			if hits[i][j] != 1 {
				t.Fatalf("unit (%d,%d) ran %d times, want exactly once", i, j, hits[i][j])
			}
		}
	}
}
