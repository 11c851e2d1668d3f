package stats

import (
	"fmt"

	"repro/internal/table"
)

// DriftTracker compares a stream of incoming rows against the value
// distribution a model saw at fit time (its FreqSnapshot), maintaining the
// two gauges the streaming subsystem exports per model:
//
//   - UnseenRate: the fraction of observed cells whose value was never
//     interned into the fit-time dictionaries (the extractor's cold path).
//   - Shift: the mean per-column total-variation distance between the
//     fit-time value distribution and the observed stream distribution,
//     with all unseen-value mass lumped into one out-of-dictionary bucket
//     per column. 0 means the stream looks exactly like the fitting data;
//     1 means no overlap at all.
//
// Observation is per cell value, independent of how rows are chunked, so
// the gauges are invariant to chunk boundaries. A tracker is not safe for
// concurrent use; the owner serializes Observe calls (the streaming
// scorer holds its own mutex).
type DriftTracker struct {
	// ref is an empty dataset bound to the fit-time dictionaries (never
	// appended to), so LookupID resolves exactly the fit-time values and
	// nothing else — the chunk-invariant seen/unseen oracle.
	ref *table.Dataset
	// fitCounts[j][id] is the fit-time occurrence count of value id in
	// column j, zero-padded to the full dictionary (values interned during
	// fitting after the frequency scan count as zero, as they do in
	// FreqFromSnapshot).
	fitCounts [][]int
	fitN      int

	obsCounts [][]int // observed occurrences of fit-time values
	obsUnseen []int   // observed occurrences of out-of-dictionary values
	obsRows   int
	obsCells  int64
	unseen    int64
}

// DriftGauges is one point-in-time reading of a tracker.
type DriftGauges struct {
	// Rows is how many stream rows the gauges were accumulated over.
	Rows int `json:"rows"`
	// UnseenRate is the fraction of observed cells carrying a value absent
	// from the fit-time dictionaries.
	UnseenRate float64 `json:"unseen_rate"`
	// Shift is the mean per-column total-variation distance between the
	// fit-time and observed value distributions, in [0, 1].
	Shift float64 `json:"shift"`
}

// NewDriftTracker builds a tracker from a fit-time frequency snapshot and
// an empty reference dataset bound to the fit-time dictionaries (as built
// by table.NewFromDicts from the model's captured pools). The reference
// must never be appended to — the tracker relies on its dictionaries
// staying exactly the fit-time value set.
func NewDriftTracker(s *FreqSnapshot, ref *table.Dataset) (*DriftTracker, error) {
	if s == nil {
		return nil, fmt.Errorf("stats: nil frequency snapshot")
	}
	if ref == nil {
		return nil, fmt.Errorf("stats: nil reference dataset")
	}
	if ref.NumRows() != 0 {
		return nil, fmt.Errorf("stats: drift reference dataset has %d rows, want an empty dictionary-bound dataset", ref.NumRows())
	}
	m := ref.NumCols()
	if len(s.Counts) != m {
		return nil, fmt.Errorf("stats: snapshot has %d count columns, reference has %d", len(s.Counts), m)
	}
	t := &DriftTracker{
		ref:       ref,
		fitCounts: make([][]int, m),
		fitN:      s.N,
		obsCounts: make([][]int, m),
		obsUnseen: make([]int, m),
	}
	for j := 0; j < m; j++ {
		size := ref.DictSize(j)
		if len(s.Counts[j]) > size {
			return nil, fmt.Errorf("stats: snapshot counts cover %d values of column %d, dictionary has %d", len(s.Counts[j]), j, size)
		}
		t.fitCounts[j] = make([]int, size)
		copy(t.fitCounts[j], s.Counts[j])
		t.obsCounts[j] = make([]int, size)
	}
	return t, nil
}

// Observe folds every row of d (in reference attribute order) into the
// observed distribution. When d was derived from the reference dataset
// (table.Dataset.Derive), its value IDs are counted as they are: an ID
// below the fit-time dictionary size is that fit-time value, any other is
// unseen, and no cell is hashed. Any other dataset is resolved cell by
// cell through the reference's dictionaries by string. Both give the same
// counts. A dataset whose arity does not match the schema is rejected
// untracked.
func (t *DriftTracker) Observe(d *table.Dataset) error {
	if d.NumCols() != t.ref.NumCols() {
		return fmt.Errorf("stats: drift dataset arity %d does not match schema arity %d", d.NumCols(), t.ref.NumCols())
	}
	bound := d.DerivedFrom(t.ref)
	for j := range t.obsCounts {
		counts := t.obsCounts[j]
		for _, id := range d.ColumnIDs(j) {
			if !bound {
				var ok bool
				if id, ok = t.ref.LookupID(j, d.DictValue(j, id)); !ok {
					id = uint32(len(counts))
				}
			}
			if int(id) < len(counts) {
				counts[id]++
			} else {
				t.obsUnseen[j]++
				t.unseen++
			}
		}
	}
	t.obsRows += d.NumRows()
	t.obsCells += int64(d.NumCells())
	return nil
}

// Gauges computes the current drift reading. With no observations both
// gauges are zero.
func (t *DriftTracker) Gauges() DriftGauges {
	g := DriftGauges{Rows: t.obsRows}
	if t.obsCells == 0 {
		return g
	}
	g.UnseenRate = float64(t.unseen) / float64(t.obsCells)
	if t.fitN <= 0 || t.obsRows == 0 {
		return g
	}
	// Per-column total variation: ½·Σ|p−q| over the fit-time dictionary
	// plus the whole observed out-of-dictionary mass (where p is zero).
	var sum float64
	cols := len(t.fitCounts)
	for j := 0; j < cols; j++ {
		var tv float64
		for id, fc := range t.fitCounts[j] {
			p := float64(fc) / float64(t.fitN)
			q := float64(t.obsCounts[j][id]) / float64(t.obsRows)
			if p > q {
				tv += p - q
			} else {
				tv += q - p
			}
		}
		tv += float64(t.obsUnseen[j]) / float64(t.obsRows)
		sum += tv / 2
	}
	g.Shift = sum / float64(cols)
	return g
}

// Trip reports whether the reading has drifted past threshold: at least
// minRows rows observed, and either gauge above the threshold. A
// non-positive threshold disables tripping (the gauges keep accumulating).
// Deciding from a reading lets a caller that already holds one skip a
// second walk of the fit-time dictionaries.
func (g DriftGauges) Trip(threshold float64, minRows int) bool {
	if threshold <= 0 || g.Rows < minRows {
		return false
	}
	return g.UnseenRate > threshold || g.Shift > threshold
}
