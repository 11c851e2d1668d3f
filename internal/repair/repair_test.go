package repair

import (
	"context"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// geo builds a dataset with an FD (Country -> Capital), a categorical
// domain, and a numeric column; flagged holds the injected error cells.
func geo() (*table.Dataset, [][]bool) {
	d := table.New("geo", []string{"Country", "Capital", "Pop"})
	for i := 0; i < 40; i++ {
		d.MustAppendRow([]string{"France", "Paris", "67"})
		d.MustAppendRow([]string{"Japan", "Tokyo", "125"})
	}
	mask := make([][]bool, d.NumRows())
	for i := range mask {
		mask[i] = make([]bool, d.NumCols())
	}
	// Rule violation, typo, outlier, missing.
	d.SetValue(0, 1, "Tokyo")
	mask[0][1] = true
	d.SetValue(2, 1, "Parjs")
	mask[2][1] = true
	d.SetValue(4, 2, "670000")
	mask[4][2] = true
	d.SetValue(6, 0, "")
	mask[6][0] = true
	return d, mask
}

func fixAt(fixes []Fix, row, col int) (Fix, bool) {
	for _, f := range fixes {
		if f.Row == row && f.Col == col {
			return f, true
		}
	}
	return Fix{}, false
}

func TestFDRepair(t *testing.T) {
	d, mask := geo()
	fixes := New(Config{}).Propose(d, mask)
	f, ok := fixAt(fixes, 0, 1)
	if !ok {
		t.Fatal("rule violation not repaired")
	}
	if f.New != "Paris" || f.Strategy != StrategyFD {
		t.Errorf("fix = %+v, want Paris via fd", f)
	}
}

func TestTypoRepair(t *testing.T) {
	d, mask := geo()
	fixes := New(Config{}).Propose(d, mask)
	f, ok := fixAt(fixes, 2, 1)
	if !ok {
		t.Fatal("typo not repaired")
	}
	// The FD implies Paris too; either strategy is acceptable, but the
	// value must be Paris.
	if f.New != "Paris" {
		t.Errorf("typo fix = %+v, want Paris", f)
	}
}

func TestOutlierRepair(t *testing.T) {
	d, mask := geo()
	fixes := New(Config{}).Propose(d, mask)
	f, ok := fixAt(fixes, 4, 2)
	if !ok {
		t.Fatal("outlier not repaired")
	}
	if f.New != "67" {
		t.Errorf("outlier fix = %+v, want column value 67", f)
	}
}

func TestMissingRepairViaFD(t *testing.T) {
	d, mask := geo()
	fixes := New(Config{}).Propose(d, mask)
	// Row 6 is a France row with Country nulled; Capital=Paris determines
	// Country=France on clean rows.
	f, ok := fixAt(fixes, 6, 0)
	if !ok {
		t.Fatal("missing value not repaired")
	}
	if f.New != "France" {
		t.Errorf("missing fix = %+v, want France", f)
	}
}

func TestApplyProducesRepairedCopy(t *testing.T) {
	d, mask := geo()
	before := d.Clone()
	repaired, fixes := New(Config{}).Apply(d, mask)
	if len(fixes) == 0 {
		t.Fatal("no fixes applied")
	}
	// Original untouched.
	for i := 0; i < d.NumRows(); i++ {
		for j := 0; j < d.NumCols(); j++ {
			if d.Value(i, j) != before.Value(i, j) {
				t.Fatal("Apply must not mutate the input")
			}
		}
	}
	if repaired.Value(0, 1) != "Paris" {
		t.Errorf("repaired cell = %q, want Paris", repaired.Value(0, 1))
	}
}

func TestNoConfidentFixLeavesCell(t *testing.T) {
	// A high-cardinality column with no frequent values: nothing to fix to.
	d := table.New("t", []string{"ID"})
	mask := [][]bool{}
	for i := 0; i < 20; i++ {
		d.MustAppendRow([]string{string(rune('a'+i)) + "-unique-xyz"})
		mask = append(mask, []bool{i == 0})
	}
	fixes := New(Config{}).Propose(d, mask)
	if len(fixes) != 0 {
		t.Errorf("no confident fix exists, got %v", fixes)
	}
}

func TestEmptyMaskNoFixes(t *testing.T) {
	d, _ := geo()
	mask := make([][]bool, d.NumRows())
	for i := range mask {
		mask[i] = make([]bool, d.NumCols())
	}
	if fixes := New(Config{}).Propose(d, mask); len(fixes) != 0 {
		t.Errorf("clean mask should yield no fixes, got %d", len(fixes))
	}
}

// TestDetectThenRepair is the integration test for the full cleaning loop:
// ZeroED detects, the repairer fixes, and the repaired dataset is closer to
// ground truth than the dirty one.
func TestDetectThenRepair(t *testing.T) {
	bench := datasets.Hospital(300, 21)
	res, err := zeroed.New(zeroed.Config{Seed: 21, LabelRate: 0.08, EmbedDim: 16}).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	repaired, fixes := New(Config{}).Apply(bench.Dirty, res.Pred)
	if len(fixes) == 0 {
		t.Fatal("expected some repairs on a dirty benchmark")
	}
	dirtyRate, err := table.ErrorRate(bench.Dirty, bench.Clean)
	if err != nil {
		t.Fatal(err)
	}
	repairedRate, err := table.ErrorRate(repaired, bench.Clean)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("error rate: dirty %.4f -> repaired %.4f (%d fixes)", dirtyRate, repairedRate, len(fixes))
	if repairedRate >= dirtyRate {
		t.Errorf("repair should reduce the error rate: %.4f -> %.4f", dirtyRate, repairedRate)
	}
	correct := 0
	for _, f := range fixes {
		if f.New == bench.Clean.Value(f.Row, f.Col) {
			correct++
		}
	}
	prec := float64(correct) / float64(len(fixes))
	t.Logf("repair precision: %.3f (%d/%d exactly match ground truth)", prec, correct, len(fixes))
	if prec < 0.3 {
		t.Errorf("repair precision = %.3f, want >= 0.3", prec)
	}
}
