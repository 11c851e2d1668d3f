package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/table"
	"repro/internal/text"
)

// TestFreqFromSnapshotZeroPadding is the property test behind the drift
// gauges' cold path: restoring a frequency snapshot against a dataset whose
// dictionaries grew after the fit (values interned by post-fit appends)
// must report the exact fit-time frequency for every fit-time value ID and
// exactly zero for every ID interned after the snapshot — for any random
// mix of seen and unseen appends. Pattern frequencies agree with the live
// table's for every ID, and the restored table snapshots back to the
// snapshot it came from, so a re-saved model does not grow.
func TestFreqFromSnapshotZeroPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		// Random fitting data over a small value universe.
		attrs := []string{"a", "b", "c"}
		fit := table.New("fit", attrs)
		fitRows := 20 + rng.Intn(60)
		for i := 0; i < fitRows; i++ {
			fit.MustAppendRow([]string{
				fmt.Sprintf("a%d", rng.Intn(8)),
				fmt.Sprintf("b%d", rng.Intn(5)),
				fmt.Sprintf("c%d", rng.Intn(12)),
			})
		}
		cf := NewColumnFrequencies(fit)
		snap := cf.Snapshot()
		fitSizes := make([]int, fit.NumCols())
		wantFreq := make([][]float64, fit.NumCols())
		for j := range fitSizes {
			fitSizes[j] = fit.DictSize(j)
			wantFreq[j] = make([]float64, fitSizes[j])
			for id := range wantFreq[j] {
				wantFreq[j][id] = cf.ValueFrequencyID(j, uint32(id))
			}
		}

		// Rebind to a dictionary-seeded dataset and grow it with a random
		// mix of fit-time values and novel ones.
		dicts := make([][]string, fit.NumCols())
		for j := range dicts {
			dicts[j] = fit.Dict(j)
		}
		grown, err := table.NewFromDicts("grown", attrs, dicts)
		if err != nil {
			t.Fatal(err)
		}
		novel := 0
		for i := 0; i < 40; i++ {
			row := make([]string, len(attrs))
			for j := range row {
				if rng.Intn(2) == 0 {
					row[j] = fmt.Sprintf("%s%d", attrs[j], rng.Intn(8))
				} else {
					novel++
					row[j] = fmt.Sprintf("novel-%d-%d", trial, novel)
				}
			}
			grown.MustAppendRow(row)
		}

		restored, err := FreqFromSnapshot(snap, grown)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		live := cf.Rebind(grown)
		for j := 0; j < grown.NumCols(); j++ {
			if grown.DictSize(j) < fitSizes[j] {
				t.Fatalf("trial %d: dictionary shrank", trial)
			}
			// Fit-time IDs: exact original frequencies.
			for id := 0; id < fitSizes[j]; id++ {
				got := restored.ValueFrequencyID(j, uint32(id))
				if got != wantFreq[j][id] {
					t.Fatalf("trial %d: col %d id %d frequency = %g, want %g", trial, j, id, got, wantFreq[j][id])
				}
			}
			// Post-snapshot IDs: exactly zero, for every grown entry.
			for id := fitSizes[j]; id < grown.DictSize(j); id++ {
				if got := restored.ValueFrequencyID(j, uint32(id)); got != 0 {
					t.Fatalf("trial %d: col %d post-snapshot id %d frequency = %g, want 0", trial, j, id, got)
				}
			}
			for id := 0; id < grown.DictSize(j); id++ {
				for _, lvl := range []text.PatternLevel{text.L1, text.L2, text.L3} {
					got := restored.PatternFrequencyID(j, uint32(id), lvl)
					if want := live.PatternFrequencyID(j, uint32(id), lvl); got != want {
						t.Fatalf("trial %d: col %d id %d L%d pattern frequency = %g, want %g", trial, j, id, lvl, got, want)
					}
				}
			}
		}
		if !reflect.DeepEqual(restored.Snapshot(), snap) {
			t.Fatalf("trial %d: the restored table does not snapshot back to its snapshot", trial)
		}
	}
}
