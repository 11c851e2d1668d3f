package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// fitAndTracker builds a small fitting dataset, snapshots its frequencies,
// and returns a tracker bound to the fit-time dictionaries.
func fitAndTracker(t *testing.T, rows [][]string) (*table.Dataset, *DriftTracker) {
	t.Helper()
	fit := table.New("fit", []string{"a", "b"})
	for _, r := range rows {
		fit.MustAppendRow(r)
	}
	snap := NewColumnFrequencies(fit).Snapshot()
	dicts := make([][]string, fit.NumCols())
	for j := range dicts {
		dicts[j] = fit.Dict(j)
	}
	ref, err := table.NewFromDicts("ref", fit.Attrs, dicts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDriftTracker(snap, ref)
	if err != nil {
		t.Fatal(err)
	}
	return fit, tr
}

// TestDriftTrackerIdenticalStream: replaying the fitting rows yields zero
// unseen rate and zero shift.
func TestDriftTrackerIdenticalStream(t *testing.T) {
	rows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "1"}, {"z", "3"}}
	_, tr := fitAndTracker(t, rows)
	for _, r := range rows {
		if err := tr.ObserveRow(r); err != nil {
			t.Fatal(err)
		}
	}
	g := tr.Gauges()
	if g.Rows != len(rows) || g.UnseenRate != 0 {
		t.Fatalf("identical stream gauges = %+v, want 0 unseen over %d rows", g, len(rows))
	}
	if g.Shift > 1e-12 {
		t.Fatalf("identical stream shift = %g, want 0", g.Shift)
	}
	if tr.Gauges().Trip(0.1, 1) {
		t.Fatal("identical stream must not trip")
	}
}

// TestDriftTrackerDisjointStream: a stream of entirely novel values drives
// both gauges to 1.
func TestDriftTrackerDisjointStream(t *testing.T) {
	_, tr := fitAndTracker(t, [][]string{{"x", "1"}, {"y", "2"}})
	for i := 0; i < 10; i++ {
		if err := tr.ObserveRow([]string{fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	g := tr.Gauges()
	if g.UnseenRate != 1 {
		t.Fatalf("disjoint unseen rate = %g, want 1", g.UnseenRate)
	}
	if math.Abs(g.Shift-1) > 1e-12 {
		t.Fatalf("disjoint shift = %g, want 1", g.Shift)
	}
	if !tr.Gauges().Trip(0.5, 10) {
		t.Fatal("disjoint stream must trip at threshold 0.5")
	}
	if tr.Gauges().Trip(0.5, 11) {
		t.Fatal("minRows must gate the trip")
	}
	if tr.Gauges().Trip(0, 1) {
		t.Fatal("non-positive threshold must disable tripping")
	}
}

// TestDriftTrackerChunkInvariance: gauges depend only on the multiset of
// observed rows, not on the order or grouping of observations.
func TestDriftTrackerChunkInvariance(t *testing.T) {
	fitRows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "3"}}
	stream := make([][]string, 0, 60)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		stream = append(stream, []string{
			[]string{"x", "y", "novel"}[rng.Intn(3)],
			fmt.Sprintf("%d", rng.Intn(6)),
		})
	}
	_, tr1 := fitAndTracker(t, fitRows)
	for _, r := range stream {
		tr1.ObserveRow(r)
	}
	_, tr2 := fitAndTracker(t, fitRows)
	perm := rng.Perm(len(stream))
	for _, i := range perm {
		tr2.ObserveRow(stream[i])
	}
	g1, g2 := tr1.Gauges(), tr2.Gauges()
	if g1 != g2 {
		t.Fatalf("gauges depend on observation order: %+v vs %+v", g1, g2)
	}
}

// TestDriftTrackerRejectsBadShapes: arity mismatches and malformed
// references are errors, not corruption.
func TestDriftTrackerRejectsBadShapes(t *testing.T) {
	_, tr := fitAndTracker(t, [][]string{{"x", "1"}})
	if err := tr.ObserveRow([]string{"only-one"}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if g := tr.Gauges(); g.Rows != 0 {
		t.Fatalf("rejected row was tracked: %+v", g)
	}
	if _, err := NewDriftTracker(nil, table.New("r", []string{"a"})); err == nil {
		t.Fatal("nil snapshot must error")
	}
	if _, err := NewDriftTracker(&FreqSnapshot{Counts: [][]int{{1}}}, nil); err == nil {
		t.Fatal("nil reference must error")
	}
	nonEmpty := table.New("r", []string{"a"})
	nonEmpty.MustAppendRow([]string{"v"})
	if _, err := NewDriftTracker(&FreqSnapshot{Counts: [][]int{{1}}}, nonEmpty); err == nil {
		t.Fatal("non-empty reference must error")
	}
}
