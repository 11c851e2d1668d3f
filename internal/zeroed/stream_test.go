package zeroed

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
)

// fitStreamModel fits a small Hospital model once per test binary for the
// streaming tests.
var streamFitOnce struct {
	sync.Once
	m     *Model
	bench *datasets.Bench
	err   error
}

func fitStreamModel(t testing.TB) (*Model, *datasets.Bench) {
	t.Helper()
	streamFitOnce.Do(func() {
		streamFitOnce.bench = datasets.Hospital(200, 7)
		streamFitOnce.m, streamFitOnce.err = New(Config{
			LabelRate: 0.08, EmbedDim: 16, Seed: 7, Workers: 2,
		}).FitOn(context.Background(), nil, streamFitOnce.bench.Dirty)
	})
	if streamFitOnce.err != nil {
		t.Fatal(streamFitOnce.err)
	}
	return streamFitOnce.m, streamFitOnce.bench
}

// benchRows materializes the first n dirty rows as raw tuples.
func benchRows(b *datasets.Bench, n int) [][]string {
	if n > b.Dirty.NumRows() {
		n = b.Dirty.NumRows()
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		rows[i] = b.Dirty.Row(i)
	}
	return rows
}

// TestStreamChunkingInvariance pins the tentpole contract: the same row
// stream split at arbitrary chunk boundaries produces the identical verdict
// and score sequence — chunk boundaries are a transport detail, not a
// scoring input.
func TestStreamChunkingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	m, bench := fitStreamModel(t)
	rows := benchRows(bench, 120)
	// Mutate a few cells so the stream carries unseen values (cold path).
	rows[5][0] = "chunk-invariance-novel-1"
	rows[77][2] = "chunk-invariance-novel-2"

	score := func(chunks []int) ([][]bool, [][]float64) {
		ss, err := NewStreamScorer(m, StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var pred [][]bool
		var scores [][]float64
		i := 0
		for i < len(rows) {
			n := chunks[0]
			chunks = append(chunks[1:], chunks[0]) // cycle the sizes
			if i+n > len(rows) {
				n = len(rows) - i
			}
			res, _, err := ss.ScoreChunk(context.Background(), nil, rows[i:i+n])
			if err != nil {
				t.Fatal(err)
			}
			pred = append(pred, res.Pred...)
			scores = append(scores, res.Scores...)
			i += n
		}
		return pred, scores
	}

	wantPred, wantScores := score([]int{len(rows)})
	for _, chunks := range [][]int{{1}, {3}, {7, 1, 13}, {64}} {
		pred, scores := score(chunks)
		if len(pred) != len(wantPred) {
			t.Fatalf("chunks %v scored %d rows, want %d", chunks, len(pred), len(wantPred))
		}
		for i := range wantPred {
			for j := range wantPred[i] {
				if pred[i][j] != wantPred[i][j] {
					t.Fatalf("chunks %v: verdict differs at (%d,%d)", chunks, i, j)
				}
				if math.Float64bits(scores[i][j]) != math.Float64bits(wantScores[i][j]) {
					t.Fatalf("chunks %v: score bits differ at (%d,%d)", chunks, i, j)
				}
			}
		}
	}
}

// TestStreamDriftGaugesAndTrip: replaying fit-like rows keeps the gauges
// low; a burst of novel values raises the unseen rate and trips the
// threshold exactly once per refit slot.
func TestStreamDriftGaugesAndTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	m, bench := fitStreamModel(t)
	ss, err := NewStreamScorer(m, StreamConfig{DriftThreshold: 0.3, DriftMinRows: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the entire fitting dataset: the observed distribution matches
	// the fit-time one exactly, so both gauges read zero. (A partial replay
	// would legitimately read a non-zero shift — sampling variance.)
	_, st, err := ss.ScoreChunk(context.Background(), nil, benchRows(bench, bench.Dirty.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Drift.UnseenRate != 0 || st.Drift.Shift > 1e-9 || st.ShouldRefit {
		t.Fatalf("fit-identical stream reads %+v, want zero gauges and no trip", st.Drift)
	}

	novel := make([][]string, 150)
	for i := range novel {
		row := make([]string, bench.Dirty.NumCols())
		for j := range row {
			row[j] = "novel-" + string(rune('a'+j)) + "-" + string(rune('0'+i%10))
		}
		novel[i] = row
	}
	_, st, err = ss.ScoreChunk(context.Background(), nil, novel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Drift.UnseenRate < 0.3 {
		t.Fatalf("novel burst unseen rate = %g, want > 0.3", st.Drift.UnseenRate)
	}
	if !st.ShouldRefit {
		t.Fatal("drift threshold should have tripped")
	}
	if !ss.BeginRefit() {
		t.Fatal("refit slot should be free")
	}
	if ss.BeginRefit() {
		t.Fatal("refit slot must be exclusive")
	}
	// With a refit in flight, further chunks must not re-trip.
	_, st, err = ss.ScoreChunk(context.Background(), nil, novel[:10])
	if err != nil {
		t.Fatal(err)
	}
	if st.ShouldRefit {
		t.Fatal("ShouldRefit must stay false while a refit is in flight")
	}
	ss.AbortRefit()
	if !ss.BeginRefit() {
		t.Fatal("aborting must reopen the refit slot")
	}
	ss.AbortRefit()
}

// TestStreamRefitMatchesFromScratchFit pins the successor contract: a
// drift-triggered refit is bit-identical to an independent from-scratch
// FitOn over the same accumulated dataset. The accumulated dataset reuses the
// prior model's dictionaries (it is seeded from them), so dictionary-ID
// assignment is part of the fit input — that is the documented delta
// against fitting freshly materialized rows, and within it the refit is
// exactly reproducible.
func TestStreamRefitMatchesFromScratchFit(t *testing.T) {
	if testing.Short() {
		t.Skip("fits three models")
	}
	m, _ := fitStreamModel(t)
	ss, err := NewStreamScorer(m, StreamConfig{DriftThreshold: 0.2, DriftMinRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Stream a drifted benchmark: same schema, different seed.
	drifted := datasets.Hospital(220, 13)
	rows := make([][]string, drifted.Dirty.NumRows())
	for i := range rows {
		rows[i] = drifted.Dirty.Row(i)
	}
	for i := 0; i < len(rows); i += 32 {
		hi := i + 32
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, _, err := ss.ScoreChunk(context.Background(), nil, rows[i:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if !ss.BeginRefit() {
		t.Fatal("refit slot should be free")
	}
	successor, err := ss.Refit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if l := successor.Lineage(); l.Version != 2 || l.RefitRows != len(rows) {
		t.Fatalf("successor lineage = %+v, want version 2 over %d rows", l, len(rows))
	}

	// Independent from-scratch fit over the same accumulated rows with the
	// same dictionary seeding and config.
	snap := ss.accum.Snapshot()
	if snap.NumRows() != len(rows) {
		t.Fatalf("accumulator snapshot has %d rows, want %d", snap.NumRows(), len(rows))
	}
	ds := snap.Clone()
	ds.Name = "refit"
	scratch, err := New(m.Config()).FitOn(context.Background(), nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	a, err := successor.ScoreRowsOn(context.Background(), nil, rows[:60])
	if err != nil {
		t.Fatal(err)
	}
	b, err := scratch.ScoreRowsOn(context.Background(), nil, rows[:60])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pred {
		for j := range a.Pred[i] {
			if a.Pred[i][j] != b.Pred[i][j] {
				t.Fatalf("refit verdict differs from from-scratch fit at (%d,%d)", i, j)
			}
			if math.Float64bits(a.Scores[i][j]) != math.Float64bits(b.Scores[i][j]) {
				t.Fatalf("refit score bits differ from from-scratch fit at (%d,%d)", i, j)
			}
		}
	}

	// Install hot-swaps: version advances and the gauges reset.
	if err := ss.Install(successor); err != nil {
		t.Fatal(err)
	}
	if _, v := ss.Model(); v != 2 {
		t.Fatalf("installed version = %d, want 2", v)
	}
	if g, _ := ss.Gauges(); g.Rows != 0 {
		t.Fatalf("gauges must reset on install, still carry %d rows", g.Rows)
	}
	if !ss.BeginRefit() {
		t.Fatal("install must reopen the refit slot")
	}
	ss.AbortRefit()
}

// TestStreamRefitWhileScoring runs refits against a stream that keeps
// scoring (run under -race). Scoring goroutines append to the accumulator
// under the scorer's lock while the refit snapshots it under that lock and
// fits a clone outside it, so a successor never trains on more rows than
// were sent for scoring, and a refit fails only for the documented
// single-class reason.
func TestStreamRefitWhileScoring(t *testing.T) {
	if testing.Short() {
		t.Skip("fits several models")
	}
	m, bench := fitStreamModel(t)
	// Bounding the accumulator keeps each refit as small as the first fit
	// however long the previous one took.
	ss, err := NewStreamScorer(m, StreamConfig{MaxAccumRows: bench.Dirty.NumRows()})
	if err != nil {
		t.Fatal(err)
	}
	rows := benchRows(bench, bench.Dirty.NumRows())
	for i := 0; i < len(rows); i += 9 {
		rows[i][i%len(rows[i])] = fmt.Sprintf("refit-race-novel-%d", i)
	}

	const scorers, chunk = 3, 10
	var sent, done atomic.Int64 // rows handed to ScoreChunk / rows it returned
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, scorers)
	for g := 0; g < scorers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * chunk; !stop.Load(); i = (i + scorers*chunk) % len(rows) {
				hi := min(i+chunk, len(rows))
				sent.Add(int64(hi - i))
				if _, _, err := ss.ScoreChunk(context.Background(), nil, rows[i:hi]); err != nil {
					errc <- err
					return
				}
				done.Add(int64(hi - i))
				time.Sleep(time.Millisecond) // leave the refit some CPU
			}
		}(g)
	}
	// waitScored blocks until the scorers have returned n more rows.
	waitScored := func(n int64) {
		for target := done.Load() + n; done.Load() < target && len(errc) == 0; {
			time.Sleep(time.Millisecond)
		}
	}

	version := m.Lineage().Version
	for round := 0; round < 3; round++ {
		waitScored(150)
		if !ss.BeginRefit() {
			t.Fatal("refit slot should be free")
		}
		successor, err := ss.Refit(context.Background(), nil)
		if err != nil {
			if !strings.Contains(err.Error(), "single-class") {
				t.Fatalf("round %d: refit failed: %v", round, err)
			}
			t.Logf("round %d: %v", round, err)
			ss.AbortRefit()
			continue
		}
		if got, max := successor.Lineage().RefitRows, sent.Load(); int64(got) > max {
			t.Fatalf("round %d: successor trained on %d rows, only %d were sent for scoring", round, got, max)
		}
		t.Logf("round %d: successor trained on %d rows", round, successor.Lineage().RefitRows)
		if round%2 == 1 {
			ss.AbortRefit()
			continue
		}
		if err := ss.Install(successor); err != nil {
			t.Fatal(err)
		}
		version++
		if _, v := ss.Model(); v != version {
			t.Fatalf("round %d: installed version %d, want %d", round, v, version)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestStreamScorerRejectsDegenerate: degenerate models cannot stream.
func TestStreamScorerRejectsDegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model")
	}
	clean := datasets.Hospital(60, 3).Clean
	dm, err := New(Config{LabelRate: 0.1, EmbedDim: 8, Seed: 3, Workers: 2}).FitOn(context.Background(), nil, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !dm.Degenerate() {
		t.Skip("clean fit unexpectedly non-degenerate")
	}
	if _, err := NewStreamScorer(dm, StreamConfig{}); err == nil {
		t.Fatal("degenerate model must be rejected")
	}
}
