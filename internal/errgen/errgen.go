// Package errgen is the error-generation substrate: it injects the five
// error types of the paper's taxonomy (missing values, typos, pattern
// violations, outliers, rule violations) into clean datasets, standing in
// for the BART error generator and the BigDaMa error-generator tooling the
// paper uses for Billionaire and Tax. Single-type specs drive the
// per-error-type evaluation (Fig. 11).
package errgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// Type enumerates the five error categories.
type Type string

// The error taxonomy of Section II.
const (
	Missing          Type = "MV"
	Typo             Type = "T"
	PatternViolation Type = "PV"
	Outlier          Type = "O"
	RuleViolation    Type = "RV"
)

// AllTypes lists the taxonomy in the order the paper's Fig. 11 reports it.
func AllTypes() []Type {
	return []Type{Typo, Missing, PatternViolation, RuleViolation, Outlier}
}

// Spec configures injection: per-type cell rates (fraction of all cells)
// and the columns eligible for each type. Empty eligible slices mean "any
// suitable column".
type Spec struct {
	Rates map[Type]float64
	// NumericCols restricts outlier injection; when empty, numeric columns
	// are auto-detected.
	NumericCols []int
	// FDPairs lists (determinant, dependent) column pairs for rule
	// violations; when empty, strong FDs are auto-mined.
	FDPairs [][2]int
	Seed    int64
}

// Injection records one injected error.
type Injection struct {
	Row, Col int
	Type     Type
	Clean    string
	Dirty    string
}

// Inject corrupts a copy of clean according to spec and returns the dirty
// dataset plus the injection log. Cells are corrupted at most once.
func Inject(clean *table.Dataset, spec Spec) (*table.Dataset, []Injection) {
	dirty := clean.Clone()
	rng := rand.New(rand.NewSource(spec.Seed))
	touched := make(map[[2]int]bool)
	var log []Injection

	total := clean.NumCells()
	pick := func(eligibleCols []int) ([2]int, bool) {
		for attempt := 0; attempt < 200; attempt++ {
			var col int
			if len(eligibleCols) > 0 {
				col = eligibleCols[rng.Intn(len(eligibleCols))]
			} else {
				col = rng.Intn(clean.NumCols())
			}
			row := rng.Intn(clean.NumRows())
			key := [2]int{row, col}
			if !touched[key] && !text.IsNullLike(clean.Value(row, col)) {
				return key, true
			}
		}
		return [2]int{}, false
	}

	apply := func(t Type, cell [2]int, v string) {
		touched[cell] = true
		log = append(log, Injection{Row: cell[0], Col: cell[1], Type: t,
			Clean: clean.Value(cell[0], cell[1]), Dirty: v})
		dirty.SetValue(cell[0], cell[1], v)
	}

	// Missing values.
	count := int(spec.Rates[Missing] * float64(total))
	placeholders := []string{"", "", "", "NULL", "N/A", "-"}
	for i := 0; i < count; i++ {
		if cell, ok := pick(nil); ok {
			apply(Missing, cell, placeholders[rng.Intn(len(placeholders))])
		}
	}

	// Typos: keyboard-plausible edits within distance <= 2.
	count = int(spec.Rates[Typo] * float64(total))
	for i := 0; i < count; i++ {
		cell, ok := pick(nil)
		if !ok {
			continue
		}
		src := clean.Value(cell[0], cell[1])
		v := llm.Typo(rng, src)
		if v == src || text.IsNullLike(v) {
			continue
		}
		apply(Typo, cell, v)
	}

	// Pattern violations: format mangling that changes the value's shape.
	count = int(spec.Rates[PatternViolation] * float64(total))
	for i := 0; i < count; i++ {
		cell, ok := pick(nil)
		if !ok {
			continue
		}
		src := clean.Value(cell[0], cell[1])
		v := llm.MangleFormat(rng, src)
		if v == src || text.IsNullLike(v) {
			continue
		}
		apply(PatternViolation, cell, v)
	}

	// Outliers: scale numeric values far out of distribution.
	numCols := spec.NumericCols
	if len(numCols) == 0 {
		for j := 0; j < clean.NumCols(); j++ {
			if text.IsNumericColumn(clean.Column(j), 0.9) {
				numCols = append(numCols, j)
			}
		}
	}
	count = int(spec.Rates[Outlier] * float64(total))
	if len(numCols) > 0 {
		for i := 0; i < count; i++ {
			cell, ok := pick(numCols)
			if !ok {
				continue
			}
			f, okf := text.ParseFloat(clean.Value(cell[0], cell[1]))
			if !okf {
				continue
			}
			scale := []float64{100, 1000, 0.001, -10}[rng.Intn(4)]
			apply(Outlier, cell, fmt.Sprintf("%g", f*scale))
		}
	}

	// Rule violations: replace a dependent value with a *valid* value of
	// another determinant group, breaking the dependency without creating
	// a pattern anomaly.
	pairs := spec.FDPairs
	if len(pairs) == 0 {
		pairs = mineFDPairs(clean)
	}
	count = int(spec.Rates[RuleViolation] * float64(total))
	if len(pairs) > 0 {
		// The clean table never changes, so each pair's legitimate
		// dependent values (its FD mapping's distinct values, sorted) are
		// mined once, on the pair's first draw.
		targets := map[[2]int][]string{}
		for i := 0; i < count; i++ {
			p := pairs[rng.Intn(len(pairs))]
			cell, ok := pick([]int{p[1]})
			if !ok {
				continue
			}
			values, ok := targets[p]
			if !ok {
				values = mappedValues(stats.FindFD(clean, p[0], p[1]))
				targets[p] = values
			}
			// Choose a legitimate value from a different group,
			// deterministically (sorted candidates, seeded pick).
			cur := clean.Value(cell[0], cell[1])
			var alts []string
			for _, v := range values {
				if v != cur {
					alts = append(alts, v)
				}
			}
			if len(alts) == 0 {
				continue
			}
			apply(RuleViolation, cell, alts[rng.Intn(len(alts))])
		}
	}

	return dirty, log
}

// mappedValues returns the distinct dependent values of an FD mapping,
// sorted.
func mappedValues(fd stats.FDCandidate) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range fd.Mapping {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortStringsInPlace(out)
	return out
}

// mineFDPairs finds strongly dependent attribute pairs in the clean data
// for rule-violation injection. Near-key determinants are skipped: they
// trivially determine everything.
func mineFDPairs(d *table.Dataset) [][2]int {
	var out [][2]int
	for det := 0; det < d.NumCols(); det++ {
		if float64(d.DistinctCount(det)) >= 0.5*float64(d.NumRows()) {
			continue
		}
		groups := stats.GroupFD(d, det, nil)
		for dep := 0; dep < d.NumCols(); dep++ {
			if det == dep {
				continue
			}
			if maj := groups.Majority(dep); maj.Support >= 0.98 && maj.Groups >= 2 {
				out = append(out, [2]int{det, dep})
			}
		}
	}
	return out
}

// SingleTypeSpec builds a Spec that injects only one error type at the
// given rate — the Fig. 11 per-error-type scenarios.
func SingleTypeSpec(t Type, rate float64, seed int64) Spec {
	return Spec{Rates: map[Type]float64{t: rate}, Seed: seed}
}

// MixedSpec builds a Spec with at least three error types (the paper's
// "ME" mixed scenario).
func MixedSpec(rate float64, seed int64) Spec {
	per := rate / 4
	return Spec{Rates: map[Type]float64{
		Typo: per, Missing: per, PatternViolation: per, Outlier: per,
	}, Seed: seed}
}

// FormatLog renders a short human-readable injection summary.
func FormatLog(log []Injection, limit int) string {
	var b strings.Builder
	for i, inj := range log {
		if i >= limit {
			fmt.Fprintf(&b, "... and %d more\n", len(log)-limit)
			break
		}
		fmt.Fprintf(&b, "(%d,%d) %s: %q -> %q\n", inj.Row, inj.Col, inj.Type, inj.Clean, inj.Dirty)
	}
	return b.String()
}

func sortStringsInPlace(xs []string) { sort.Strings(xs) }
