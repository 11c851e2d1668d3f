package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

func masks() (pred, truth [][]bool) {
	// 2x3 grid: one TP, one FP, one FN, three TN.
	pred = [][]bool{{true, true, false}, {false, false, false}}
	truth = [][]bool{{true, false, true}, {false, false, false}}
	return
}

func TestCompute(t *testing.T) {
	pred, truth := masks()
	m := Compute(pred, truth)
	if m.TP != 1 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("counts = %d/%d/%d", m.TP, m.FP, m.FN)
	}
	if m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("P/R/F1 = %v/%v/%v, want 0.5 each", m.Precision, m.Recall, m.F1)
	}
}

func TestComputeDegenerate(t *testing.T) {
	empty := [][]bool{{false, false}}
	m := Compute(empty, empty)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("all-negative case should be zeros, got %+v", m)
	}
	allPred := [][]bool{{true, true}}
	m = Compute(allPred, [][]bool{{true, true}})
	if m.F1 != 1 {
		t.Errorf("perfect prediction F1 = %v, want 1", m.F1)
	}
}

// Property: F1 is the harmonic mean of precision and recall and lies
// between min and max of the two.
func TestF1HarmonicProperty(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		m := fromCounts(int(tp), int(fp), int(fn))
		if m.Precision+m.Recall == 0 {
			return m.F1 == 0
		}
		want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		return math.Abs(m.F1-want) < 1e-12 &&
			m.F1 <= math.Max(m.Precision, m.Recall)+1e-12 &&
			m.F1 >= math.Min(m.Precision, m.Recall)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeAgainst(t *testing.T) {
	clean := table.New("t", []string{"a", "b"})
	clean.MustAppendRow([]string{"x", "y"})
	dirty := clean.Clone()
	dirty.SetValue(0, 1, "z")
	pred := [][]bool{{false, true}}
	m, err := ComputeAgainst(pred, dirty, clean)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 != 1 {
		t.Errorf("F1 = %v, want 1", m.F1)
	}
	if _, err := ComputeAgainst(pred, dirty, table.New("t", []string{"a"})); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestStringAndRowFormatting(t *testing.T) {
	m := Metrics{Precision: 0.5, Recall: 0.25, F1: 1.0 / 3.0}
	if got := m.String(); got != "0.500 0.250 0.333" {
		t.Errorf("String() = %q", got)
	}
	row := Row("ZeroED", []Metrics{m, m})
	if !strings.HasPrefix(row, "ZeroED") || strings.Count(row, "|") != 2 {
		t.Errorf("Row = %q", row)
	}
	h := Header([]string{"Hospital", "Flights"})
	if !strings.Contains(h, "Hospital") || !strings.Contains(h, "Flights") {
		t.Errorf("Header = %q", h)
	}
}
