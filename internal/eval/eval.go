// Package eval implements the evaluation machinery of Section IV:
// cell-level precision/recall/F1 against ground truth, and formatting
// helpers that render results in the layout of the paper's tables.
package eval

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Metrics holds the three headline numbers of every table in the paper.
type Metrics struct {
	Precision  float64
	Recall     float64
	F1         float64
	TP, FP, FN int
}

// String renders "P/R/F1" with three decimals, the paper's format.
func (m Metrics) String() string {
	return fmt.Sprintf("%.3f %.3f %.3f", m.Precision, m.Recall, m.F1)
}

// Compute scores a prediction mask against the ground-truth error mask.
func Compute(pred, truth [][]bool) Metrics {
	var tp, fp, fn int
	for i := range truth {
		for j := range truth[i] {
			p := pred[i][j]
			t := truth[i][j]
			switch {
			case p && t:
				tp++
			case p && !t:
				fp++
			case !p && t:
				fn++
			}
		}
	}
	return fromCounts(tp, fp, fn)
}

func fromCounts(tp, fp, fn int) Metrics {
	m := Metrics{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// ComputeAgainst scores predictions for a dirty/clean dataset pair.
func ComputeAgainst(pred [][]bool, dirty, clean *table.Dataset) (Metrics, error) {
	truth, err := table.ErrorMask(dirty, clean)
	if err != nil {
		return Metrics{}, err
	}
	return Compute(pred, truth), nil
}

// Row formats one method's metrics across datasets as a fixed-width table
// row.
func Row(name string, cells []Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", name)
	for _, m := range cells {
		fmt.Fprintf(&b, " | %.3f %.3f %.3f", m.Precision, m.Recall, m.F1)
	}
	return b.String()
}

// Header formats the dataset header line matching Row's layout.
func Header(datasets []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "Method")
	for _, d := range datasets {
		fmt.Fprintf(&b, " | %-17s", d+" P/R/F1")
	}
	return b.String()
}
