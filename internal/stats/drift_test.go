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

// rowsDataset builds a plain dataset over the tracker schema, the form
// Observe resolves by string.
func rowsDataset(rows ...[]string) *table.Dataset {
	d := table.New("rows", []string{"a", "b"})
	for _, r := range rows {
		d.MustAppendRow(r)
	}
	return d
}

// TestDriftTrackerIdenticalStream: replaying the fitting rows yields zero
// unseen rate and zero shift.
func TestDriftTrackerIdenticalStream(t *testing.T) {
	rows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "1"}, {"z", "3"}}
	_, tr := fitAndTracker(t, rows)
	if err := tr.Observe(rowsDataset(rows...)); err != nil {
		t.Fatal(err)
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
	novel := rowsDataset()
	for i := 0; i < 10; i++ {
		novel.MustAppendRow([]string{fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i)})
	}
	if err := tr.Observe(novel); err != nil {
		t.Fatal(err)
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
	if err := tr1.Observe(rowsDataset(stream...)); err != nil {
		t.Fatal(err)
	}
	_, tr2 := fitAndTracker(t, fitRows)
	for _, i := range rng.Perm(len(stream)) {
		if err := tr2.Observe(rowsDataset(stream[i])); err != nil {
			t.Fatal(err)
		}
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
	if err := tr.Observe(table.New("r", []string{"only-one"})); err == nil {
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

// TestDriftTrackerBoundIDsMatchStrings: observing chunks bound to the
// reference dictionaries (a Derive of the reference, counted by ID) yields
// gauges bit-equal to resolving the same cells by string, over a stream
// that mixes fit-time values with unseen ones and is folded chunk by chunk.
func TestDriftTrackerBoundIDsMatchStrings(t *testing.T) {
	fitRows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "3"}, {"z", "2"}}
	rng := rand.New(rand.NewSource(11))
	_, byID := fitAndTracker(t, fitRows)
	_, byString := fitAndTracker(t, fitRows)
	for chunk := 0; chunk < 12; chunk++ {
		bound := byID.ref.Derive("chunk")
		for i := 0; i < 1+rng.Intn(9); i++ {
			bound.MustAppendRow([]string{
				[]string{"x", "y", "z", "novel", fmt.Sprintf("n%d", chunk)}[rng.Intn(5)],
				fmt.Sprintf("%d", rng.Intn(6)),
			})
		}
		plain := rowsDataset()
		for i := 0; i < bound.NumRows(); i++ {
			plain.MustAppendRow(bound.Row(i))
		}
		if err := byID.Observe(bound); err != nil {
			t.Fatal(err)
		}
		if err := byString.Observe(plain); err != nil {
			t.Fatal(err)
		}
		g1, g2 := byID.Gauges(), byString.Gauges()
		if g1.Rows != g2.Rows || math.Float64bits(g1.UnseenRate) != math.Float64bits(g2.UnseenRate) ||
			math.Float64bits(g1.Shift) != math.Float64bits(g2.Shift) {
			t.Fatalf("chunk %d: bound gauges %+v, string gauges %+v", chunk, g1, g2)
		}
	}
	if g := byID.Gauges(); g.UnseenRate == 0 || g.UnseenRate == 1 {
		t.Fatalf("stream is not a warm+cold mix: unseen rate %g", g.UnseenRate)
	}
	// A chunk bound to another reference's dictionaries is resolved by
	// string, not misread by ID.
	_, other := fitAndTracker(t, [][]string{{"novel", "9"}, {"x", "1"}})
	foreign := other.ref.Derive("foreign")
	foreign.MustAppendRow([]string{"novel", "9"})
	_, tr := fitAndTracker(t, fitRows)
	if err := tr.Observe(foreign); err != nil {
		t.Fatal(err)
	}
	if g := tr.Gauges(); g.UnseenRate != 1 {
		t.Fatalf("foreign-bound chunk read as seen: %+v", g)
	}
}
