package errgen

import (
	"testing"

	"repro/internal/table"
	"repro/internal/text"
)

// cleanData builds a clean dataset with a categorical column, a numeric
// column, and an FD (Country -> Capital).
func cleanData(n int) *table.Dataset {
	d := table.New("geo", []string{"Country", "Capital", "Population"})
	countries := [][2]string{{"France", "Paris"}, {"Japan", "Tokyo"}, {"Brazil", "Brasilia"}, {"Kenya", "Nairobi"}}
	for i := 0; i < n; i++ {
		c := countries[i%len(countries)]
		d.MustAppendRow([]string{c[0], c[1], "50000"})
	}
	return d
}

func TestInjectRates(t *testing.T) {
	clean := cleanData(400)
	spec := Spec{Rates: map[Type]float64{
		Missing: 0.02, Typo: 0.02, PatternViolation: 0.02, Outlier: 0.02, RuleViolation: 0.02,
	}, Seed: 1}
	dirty, log := Inject(clean, spec)
	rate, err := table.ErrorRate(dirty, clean)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.05 || rate > 0.12 {
		t.Errorf("overall error rate = %v, want ~0.10", rate)
	}
	byType := map[Type]int{}
	for _, inj := range log {
		byType[inj.Type]++
		if dirty.Value(inj.Row, inj.Col) != inj.Dirty {
			t.Error("log dirty value mismatch")
		}
		if clean.Value(inj.Row, inj.Col) != inj.Clean {
			t.Error("log clean value mismatch")
		}
	}
	for _, typ := range AllTypes() {
		if byType[typ] == 0 {
			t.Errorf("no %s errors injected", typ)
		}
	}
}

func TestInjectDoesNotTouchClean(t *testing.T) {
	clean := cleanData(100)
	before := clean.Clone()
	Inject(clean, MixedSpec(0.1, 2))
	for i := 0; i < clean.NumRows(); i++ {
		for j := 0; j < clean.NumCols(); j++ {
			if clean.Value(i, j) != before.Value(i, j) {
				t.Fatal("Inject mutated the clean input")
			}
		}
	}
}

func TestInjectDeterministic(t *testing.T) {
	clean := cleanData(200)
	spec := MixedSpec(0.08, 42)
	a, la := Inject(clean, spec)
	b, lb := Inject(clean, spec)
	if len(la) != len(lb) {
		t.Fatal("same seed must give same injection count")
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < a.NumCols(); j++ {
			if a.Value(i, j) != b.Value(i, j) {
				t.Fatal("same seed must give identical dirty data")
			}
		}
	}
}

func TestInjectionLogMatchesMask(t *testing.T) {
	clean := cleanData(300)
	dirty, log := Inject(clean, MixedSpec(0.1, 3))
	mask, _ := table.ErrorMask(dirty, clean)
	for _, inj := range log {
		if !mask[inj.Row][inj.Col] {
			t.Errorf("logged injection at (%d,%d) not in error mask", inj.Row, inj.Col)
		}
	}
	n := 0
	for i := range mask {
		for j := range mask[i] {
			if mask[i][j] {
				n++
			}
		}
	}
	if n != len(log) {
		t.Errorf("mask has %d errors, log has %d", n, len(log))
	}
}

func TestRuleViolationUsesValidValues(t *testing.T) {
	clean := cleanData(200)
	spec := Spec{Rates: map[Type]float64{RuleViolation: 0.05},
		FDPairs: [][2]int{{0, 1}}, Seed: 4}
	_, log := Inject(clean, spec)
	if len(log) == 0 {
		t.Fatal("no rule violations injected despite strong FD")
	}
	valid := map[string]bool{"Paris": true, "Tokyo": true, "Brasilia": true, "Nairobi": true}
	for _, inj := range log {
		if inj.Type != RuleViolation {
			continue
		}
		if !valid[inj.Dirty] {
			t.Errorf("rule violation value %q is not a legitimate domain value", inj.Dirty)
		}
		if inj.Dirty == inj.Clean {
			t.Error("rule violation must change the value")
		}
	}
}

func TestOutliersOnlyInNumericColumns(t *testing.T) {
	clean := cleanData(200)
	spec := Spec{Rates: map[Type]float64{Outlier: 0.05}, Seed: 5}
	_, log := Inject(clean, spec)
	if len(log) == 0 {
		t.Fatal("no outliers injected")
	}
	for _, inj := range log {
		if inj.Col != 2 {
			t.Errorf("outlier injected into non-numeric column %d", inj.Col)
		}
		if _, ok := text.ParseFloat(inj.Dirty); !ok {
			t.Errorf("outlier %q is not numeric", inj.Dirty)
		}
	}
}

func TestTypoEditDistanceBound(t *testing.T) {
	clean := cleanData(300)
	spec := Spec{Rates: map[Type]float64{Typo: 0.05}, Seed: 6}
	_, log := Inject(clean, spec)
	for _, inj := range log {
		if d := text.Levenshtein(inj.Clean, inj.Dirty); d < 1 || d > 3 {
			t.Errorf("typo %q -> %q has edit distance %d, want 1..3", inj.Clean, inj.Dirty, d)
		}
	}
}

func TestClassifier(t *testing.T) {
	clean := cleanData(200)
	cls := NewClassifier(clean)
	spec := Spec{Rates: map[Type]float64{
		Missing: 0.02, Typo: 0.02, PatternViolation: 0.02, Outlier: 0.02, RuleViolation: 0.02,
	}, FDPairs: [][2]int{{0, 1}}, Seed: 7}
	dirty, log := Inject(clean, spec)
	correct, total := 0, 0
	for _, inj := range log {
		got := cls.Classify(dirty.Row(inj.Row), inj.Row, inj.Col)
		total++
		if got == inj.Type {
			correct++
		}
	}
	// Classification is heuristic (the paper's rules are too); expect
	// strong but not perfect agreement with the injector's intent.
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Errorf("classifier agreement = %v, want >= 0.7 (total %d)", acc, total)
	}
}

func TestClassifyMissing(t *testing.T) {
	clean := cleanData(50)
	cls := NewClassifier(clean)
	row := append([]string(nil), clean.Row(0)...)
	row[1] = "NULL"
	if got := cls.Classify(row, 0, 1); got != Missing {
		t.Errorf("Classify(NULL) = %s, want MV", got)
	}
}

func TestSingleTypeSpec(t *testing.T) {
	s := SingleTypeSpec(Typo, 0.05, 9)
	if len(s.Rates) != 1 || s.Rates[Typo] != 0.05 {
		t.Errorf("SingleTypeSpec = %+v", s)
	}
}

func TestMixedSpecHasAtLeastThreeTypes(t *testing.T) {
	s := MixedSpec(0.08, 9)
	if len(s.Rates) < 3 {
		t.Errorf("MixedSpec has %d types, want >= 3", len(s.Rates))
	}
}

func TestFormatLog(t *testing.T) {
	log := []Injection{
		{Row: 1, Col: 2, Type: Typo, Clean: "a", Dirty: "b"},
		{Row: 3, Col: 4, Type: Missing, Clean: "c", Dirty: ""},
	}
	s := FormatLog(log, 1)
	if s == "" || len(s) < 10 {
		t.Error("FormatLog produced nothing")
	}
}
