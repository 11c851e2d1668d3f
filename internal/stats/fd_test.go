package stats_test

import (
	"maps"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/stats"
	"repro/internal/table"
)

// findFDNaive is the map-per-group FD miner the grouped one replaced, kept
// as the reference it must match bit for bit.
func findFDNaive(d *table.Dataset, det, dep int) stats.FDCandidate {
	detDict, depDict := d.Dict(det), d.Dict(dep)
	nullish := stats.NullishByID(d, det)
	groups := make([]map[uint32]int, len(detDict))
	detIDs, depIDs := d.ColumnIDs(det), d.ColumnIDs(dep)
	for i, dv := range detIDs {
		if nullish[dv] {
			continue
		}
		g := groups[dv]
		if g == nil {
			g = make(map[uint32]int)
			groups[dv] = g
		}
		g[depIDs[i]]++
	}
	cand := stats.FDCandidate{Det: det, Dep: dep, Mapping: make(map[string]string)}
	totalWeight, weightedSupport := 0.0, 0.0
	for dv, g := range groups {
		if g == nil {
			continue
		}
		n := 0
		bestV, bestC := "", 0
		for id, c := range g {
			n += c
			v := depDict[id]
			if c > bestC || (c == bestC && v < bestV) {
				bestV, bestC = v, c
			}
		}
		if n < 2 {
			continue
		}
		cand.Mapping[detDict[dv]] = bestV
		totalWeight += float64(n)
		weightedSupport += float64(bestC)
	}
	if totalWeight > 0 {
		cand.Support = weightedSupport / totalWeight
	}
	return cand
}

// blanked clones d with every masked cell set to "", interning "" past
// the existing values when the column never held it.
func blanked(d *table.Dataset, mask [][]bool) *table.Dataset {
	out := d.Clone()
	for i := range mask {
		for j, flagged := range mask[i] {
			if flagged {
				out.SetValue(i, j, "")
			}
		}
	}
	return out
}

func checkFD(t *testing.T, name string, got, want stats.FDCandidate) {
	t.Helper()
	if got.Det != want.Det || got.Dep != want.Dep || !maps.Equal(got.Mapping, want.Mapping) ||
		math.Float64bits(got.Support) != math.Float64bits(want.Support) {
		t.Errorf("%s %d->%d: got support %v mapping %v; want support %v mapping %v",
			name, want.Det, want.Dep, got.Support, got.Mapping, want.Support, want.Mapping)
	}
}

// checkAllPairs compares the grouped miner with the reference on every
// ordered column pair of d, unmasked and under mask (against a blanked
// clone, which is what masking stands for).
func checkAllPairs(t *testing.T, name string, d *table.Dataset, mask [][]bool) {
	t.Helper()
	view := blanked(d, mask)
	for det := 0; det < d.NumCols(); det++ {
		plain, masked := stats.GroupFD(d, det, nil), stats.GroupFD(d, det, mask)
		for dep := 0; dep < d.NumCols(); dep++ {
			if det == dep {
				continue
			}
			checkFD(t, name, stats.FindFD(d, det, dep), findFDNaive(d, det, dep))
			checkFD(t, name, plain.Candidate(dep), findFDNaive(d, det, dep))
			checkFD(t, name+"/masked", masked.Candidate(dep), findFDNaive(view, det, dep))
			checkFD(t, name+"/blanked", stats.FindFD(view, det, dep), findFDNaive(view, det, dep))
			if maj := masked.Majority(dep); maj.Groups != len(findFDNaive(view, det, dep).Mapping) {
				t.Errorf("%s/masked %d->%d: Groups = %d, want %d", name, det, dep, maj.Groups, len(findFDNaive(view, det, dep).Mapping))
			}
		}
	}
}

func TestFDMinerMatchesReference(t *testing.T) {
	for _, gen := range []struct {
		name string
		gen  datasets.Generator
	}{{"Hospital", datasets.Hospital}, {"Tax", datasets.Tax}, {"Beers", datasets.Beers}, {"Flights", datasets.Flights}} {
		b := gen.gen(300, 5)
		mask, err := table.ErrorMask(b.Dirty, b.Clean)
		if err != nil {
			t.Fatal(err)
		}
		checkAllPairs(t, gen.name, b.Dirty, mask)
		checkAllPairs(t, gen.name+"/clean", b.Clean, mask)
	}

	// Hand-built: null-like determinants, singleton groups, count ties the
	// lowest string must break (the winner interned after the loser), a
	// flagged cell voting for "" the dependent column already holds, and a
	// second dependent column whose "" is interned only by blanking.
	d := table.New("hand", []string{"Det", "Dep", "Other"})
	for _, r := range [][]string{
		{"tie", "zulu", "1"}, {"tie", "zulu", "1"}, {"tie", "alpha", "2"}, {"tie", "alpha", "2"},
		{"tie", "mike", "3"},
		{"", "x", "1"}, {"", "x", "1"}, {"NULL", "y", "1"}, {"n/a", "y", "1"}, {"N/A", "y", "1"},
		{"solo", "x", "1"},
		{"pair", "x", "1"}, {"pair", "x", "1"},
		{"blank", "q", "1"}, {"blank", "r", "2"}, {"blank", "r", "2"}, {"blank", "q", "1"},
		{"merge", "", "1"}, {"merge", "w", "1"}, {"merge", "w", "1"}, {"merge", "x", "1"},
	} {
		d.MustAppendRow(r)
	}
	mask := make([][]bool, d.NumRows())
	for i := range mask {
		mask[i] = make([]bool, d.NumCols())
	}
	mask[13][1], mask[14][1] = true, true // "" ties with "r" 2-2 and must win
	mask[13][2], mask[14][2] = true, true // Other holds no "" until blanked
	mask[4][0] = true                     // a flagged determinant is skipped
	mask[11][1] = true                    // "pair" ties "" with "x" 1-1
	mask[20][1] = true                    // votes with the stored "" to tie "w" 2-2
	checkAllPairs(t, "hand", d, mask)

	if fd := stats.FindFD(d, 0, 1); fd.Mapping["tie"] != "alpha" || fd.Mapping["merge"] != "w" || len(fd.Mapping) != 4 {
		t.Errorf("hand mapping = %v, want tie->alpha, merge->w and no null or singleton keys", fd.Mapping)
	}
	masked := stats.GroupFD(d, 0, mask).Candidate(1)
	for _, det := range []string{"blank", "pair", "merge"} {
		if w, ok := masked.Mapping[det]; !ok || w != "" {
			t.Errorf("masked mapping = %v, want the flagged cells' \"\" to win the %s tie", masked.Mapping, det)
		}
	}
	if other := stats.GroupFD(d, 0, mask).Candidate(2); other.Mapping["blank"] != "" || other.Mapping["tie"] != "1" {
		t.Errorf("masked Other mapping = %v, want blank->\"\" (an interned-after \"\") and tie->1", other.Mapping)
	}
}

// BenchmarkFindFD mines every ordered column pair of Hospital(1000), one
// grouping per determinant as repair and the baselines do.
func BenchmarkFindFD(b *testing.B) {
	d := datasets.Hospital(1000, 1).Dirty
	b.ReportAllocs()
	for b.Loop() {
		for det := 0; det < d.NumCols(); det++ {
			g := stats.GroupFD(d, det, nil)
			for dep := 0; dep < d.NumCols(); dep++ {
				if dep != det {
					g.Majority(dep)
				}
			}
		}
	}
}
