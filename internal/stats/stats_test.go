package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/table"
	"repro/internal/text"
)

func sample() *table.Dataset {
	d := table.New("tax", []string{"Name", "Gender", "Salary"})
	d.MustAppendRow([]string{"Bob", "M", "80000"})
	d.MustAppendRow([]string{"Carol", "F", "60000"})
	d.MustAppendRow([]string{"Dave", "M", "64000"})
	d.MustAppendRow([]string{"Carol", "F", "60000"})
	return d
}

// idOf returns the value ID of v in column j of d.
func idOf(d *table.Dataset, j int, v string) uint32 {
	id, _ := d.LookupID(j, v)
	return id
}

func TestValueFrequency(t *testing.T) {
	d := sample()
	cf := NewColumnFrequencies(d)
	if got := cf.ValueFrequencyID(0, idOf(d, 0, "Carol")); got != 0.5 {
		t.Errorf("ValueFrequencyID(Carol) = %v, want 0.5", got)
	}
	// A value interned after the scan has zero frequency.
	d.SetValue(0, 0, "Zed")
	if got := cf.ValueFrequencyID(0, idOf(d, 0, "Zed")); got != 0 {
		t.Errorf("ValueFrequencyID(Zed) = %v, want 0", got)
	}
}

func TestVicinityFrequency(t *testing.T) {
	d := sample()
	cf := NewColumnFrequencies(d)
	cf.BuildCoOccur(d, 1, []int{0})
	carol := idOf(d, 0, "Carol")
	// Carol always co-occurs with F: count(F|Carol)/count(Carol) = 2/2.
	if got := cf.VicinityFrequencyID(1, 0, idOf(d, 1, "F"), carol); got != 1 {
		t.Errorf("VicinityFrequencyID(F|Carol) = %v, want 1", got)
	}
	// M given Carol never happens.
	if got := cf.VicinityFrequencyID(1, 0, idOf(d, 1, "M"), carol); got != 0 {
		t.Errorf("VicinityFrequencyID(M|Carol) = %v, want 0", got)
	}
}

func TestPatternFrequency(t *testing.T) {
	d := sample()
	cf := NewColumnFrequencies(d)
	// All four salaries are D[5] at L3.
	if got := cf.PatternFrequencyID(2, idOf(d, 2, "80000"), text.L3); got != 1 {
		t.Errorf("PatternFrequencyID = %v, want 1", got)
	}
	// Values interned after the scan resolve their pattern by string: an
	// unseen pattern has frequency 0, a seen one its column share.
	d.SetValue(0, 2, "8000x")
	if got := cf.PatternFrequencyID(2, idOf(d, 2, "8000x"), text.L3); got != 0 {
		t.Errorf("PatternFrequencyID for unseen pattern = %v, want 0", got)
	}
	d.SetValue(0, 2, "12345")
	if got := cf.PatternFrequencyID(2, idOf(d, 2, "12345"), text.L3); got != 1 {
		t.Errorf("PatternFrequencyID for a novel value of a seen pattern = %v, want 1", got)
	}
}

func TestEntropy(t *testing.T) {
	if got := entropyFromCounts([]float64{3}, 3); got != 0 {
		t.Errorf("entropy(constant) = %v, want 0", got)
	}
	// Zero counts are stale dict entries and contribute nothing.
	got := entropyFromCounts([]float64{1, 0, 1}, 2)
	if math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("entropy(uniform 2) = %v, want ln2", got)
	}
}

// nmi returns NMIMatrix's entry for the two-column dataset (x, y).
func nmi(x, y []string) float64 {
	d := table.New("t", []string{"x", "y"})
	for i := range x {
		d.MustAppendRow([]string{x[i], y[i]})
	}
	return NMIMatrix(d)[0][1]
}

func TestNMIPerfectDependence(t *testing.T) {
	x := []string{"a", "b", "a", "b"}
	y := []string{"1", "2", "1", "2"}
	if got := nmi(x, y); math.Abs(got-1) > 1e-9 {
		t.Errorf("NMI(perfectly dependent) = %v, want 1", got)
	}
}

func TestNMIIndependence(t *testing.T) {
	x := []string{"a", "a", "b", "b"}
	y := []string{"1", "2", "1", "2"}
	if got := nmi(x, y); got > 1e-9 {
		t.Errorf("NMI(independent) = %v, want ~0", got)
	}
}

func TestNMIDegenerateColumn(t *testing.T) {
	if got := nmi([]string{"a", "a"}, []string{"1", "2"}); got != 0 {
		t.Errorf("NMI with constant column = %v, want 0", got)
	}
}

// Property: NMI is symmetric and within [0,1].
func TestNMIProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		x := make([]string, n)
		y := make([]string, n)
		for i := 0; i < n; i++ {
			x[i] = string(rune('a' + xs[i]%4))
			y[i] = string(rune('p' + ys[i]%4))
		}
		a, b := nmi(x, y), nmi(y, x)
		return math.Abs(a-b) < 1e-9 && a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopKCorrelated(t *testing.T) {
	nmi := [][]float64{
		{1, 0.9, 0.1, 0.5},
		{0.9, 1, 0.2, 0.3},
		{0.1, 0.2, 1, 0.7},
		{0.5, 0.3, 0.7, 1},
	}
	got := TopKCorrelated(nmi, 0, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TopKCorrelated = %v, want [1 3]", got)
	}
	// k larger than available attributes clamps.
	if got := TopKCorrelated(nmi, 0, 10); len(got) != 3 {
		t.Errorf("TopKCorrelated clamp = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Errorf("MeanStd = %v, %v, want 5, 2", mean, std)
	}
}

func TestProfileAttribute(t *testing.T) {
	d := table.New("t", []string{"Salary"})
	for i := 0; i < 99; i++ {
		d.MustAppendRow([]string{"50000"})
	}
	d.MustAppendRow([]string{""})
	p := ProfileAttribute(d, 0)
	if p.Missing != 1 {
		t.Errorf("Missing = %d, want 1", p.Missing)
	}
	if !p.Numeric {
		t.Error("mostly-numeric column should profile as numeric")
	}
	if p.TopValues[0].Value != "50000" || p.TopValues[0].Count != 99 {
		t.Errorf("TopValues = %v", p.TopValues)
	}
	if p.DominantShare < 0.9 {
		t.Errorf("DominantShare = %v, want >= 0.9", p.DominantShare)
	}
	if rep := p.Report(); len(rep) == 0 {
		t.Error("Report is empty")
	}
}

func TestFindFD(t *testing.T) {
	d := table.New("t", []string{"Country", "Capital"})
	for i := 0; i < 10; i++ {
		d.MustAppendRow([]string{"France", "Paris"})
		d.MustAppendRow([]string{"Japan", "Tokyo"})
	}
	d.MustAppendRow([]string{"France", "Lyon"}) // one violation
	fd := FindFD(d, 0, 1)
	if fd.Mapping["France"] != "Paris" || fd.Mapping["Japan"] != "Tokyo" {
		t.Errorf("Mapping = %v", fd.Mapping)
	}
	if fd.Support <= 0.9 || fd.Support >= 1 {
		t.Errorf("Support = %v, want in (0.9, 1)", fd.Support)
	}
}

func TestFindFDIgnoresNulls(t *testing.T) {
	d := table.New("t", []string{"A", "B"})
	d.MustAppendRow([]string{"", "x"})
	d.MustAppendRow([]string{"", "y"})
	fd := FindFD(d, 0, 1)
	if len(fd.Mapping) != 0 {
		t.Errorf("null determinants should be skipped, got %v", fd.Mapping)
	}
}

func TestNMIMatrixSymmetricUnitDiagonal(t *testing.T) {
	mat := NMIMatrix(sample())
	for a := range mat {
		if mat[a][a] != 1 {
			t.Errorf("diag[%d] = %v, want 1", a, mat[a][a])
		}
		for b := range mat {
			if mat[a][b] != mat[b][a] {
				t.Errorf("matrix not symmetric at (%d,%d)", a, b)
			}
		}
	}
	// Name determines Gender in the sample, so NMI should be high.
	if mat[0][1] < 0.8 {
		t.Errorf("NMI(Name,Gender) = %v, want high", mat[0][1])
	}
}

// Property: per-column value frequencies of distinct values sum to 1.
func TestValueFrequencySumsToOne(t *testing.T) {
	d := sample()
	cf := NewColumnFrequencies(d)
	for j := 0; j < d.NumCols(); j++ {
		sum := 0.0
		for id := range d.DictSize(j) {
			sum += cf.ValueFrequencyID(j, uint32(id))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("col %d: distinct value frequencies sum to %v, want 1", j, sum)
		}
	}
}

// Property: pattern frequency of an observed value is always positive and
// never exceeds 1.
func TestPatternFrequencyBounds(t *testing.T) {
	d := sample()
	cf := NewColumnFrequencies(d)
	for j := 0; j < d.NumCols(); j++ {
		for _, id := range d.ColumnIDs(j) {
			for _, lvl := range []text.PatternLevel{text.L1, text.L2, text.L3} {
				f := cf.PatternFrequencyID(j, id, lvl)
				if f <= 0 || f > 1 {
					t.Fatalf("pattern frequency %v out of (0,1]", f)
				}
			}
		}
	}
}

func TestStableSumOrderIndependent(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 1e-17, -0.3}
	b := []float64{-0.3, 1e-17, 0.3, 0.2, 0.1}
	if stableSum(append([]float64(nil), a...)) != stableSum(append([]float64(nil), b...)) {
		t.Error("stableSum must be order independent")
	}
}

// The mutual-information sums iterate a map, so only stableSum keeps the
// NMI matrix bit-identical from run to run.
func TestEntropyDeterministicAcrossRuns(t *testing.T) {
	x := []string{"a", "b", "c", "a", "b", "a", "d", "e", "f", "g"}
	y := []string{"p", "q", "r", "p", "q", "r", "p", "q", "r", "p"}
	first := nmi(x, y)
	for i := 0; i < 50; i++ {
		if got := nmi(x, y); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("NMIMatrix must be bit-identical across calls: %v != %v", got, first)
		}
	}
}
