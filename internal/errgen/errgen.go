// Package errgen is the error-generation substrate: it injects the five
// error types of the paper's taxonomy (missing values, typos, pattern
// violations, outliers, rule violations) into clean datasets, standing in
// for the BART error generator and the BigDaMa error-generator tooling the
// paper uses for Billionaire and Tax. It also implements the paper's
// Section IV-A rules for classifying an observed error's type, which the
// per-error-type evaluation (Fig. 11) requires.
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

// Classify assigns an error type to an observed (dirty, clean) pair using
// the paper's Section IV-A rules: MV for explicit/implicit placeholders;
// T for errors within edit distance <= 3 of the clean value; PV for error
// formats unseen in the clean column; RV for values that break a mined
// dependency; O otherwise (rare deviations).
type Classifier struct {
	clean         *table.Dataset
	cleanPatterns []map[string]bool // L3 patterns per column
	cleanValues   []map[string]bool
	cleanClasses  []map[byte]bool // character classes present per column
	numericCol    []bool
	fds           []stats.FDCandidate
}

func charClass(r rune) byte {
	switch {
	case r >= '0' && r <= '9':
		return 'D'
	case (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		return 'L'
	case r == ' ' || r == '\t':
		return 'W'
	default:
		return 'S'
	}
}

// NewClassifier prepares pattern tables and FD evidence from the clean data.
func NewClassifier(clean *table.Dataset) *Classifier {
	c := &Classifier{clean: clean}
	c.cleanPatterns = make([]map[string]bool, clean.NumCols())
	c.cleanValues = make([]map[string]bool, clean.NumCols())
	c.cleanClasses = make([]map[byte]bool, clean.NumCols())
	c.numericCol = make([]bool, clean.NumCols())
	for j := 0; j < clean.NumCols(); j++ {
		pats := map[string]bool{}
		vals := map[string]bool{}
		classes := map[byte]bool{}
		// Set-valued profiles depend only on the distinct values: one pass
		// over the column's intern pool instead of every row.
		for _, v := range clean.Dict(j) {
			pats[text.Generalize(v, text.L3)] = true
			vals[v] = true
			for _, r := range v {
				classes[charClass(r)] = true
			}
		}
		c.cleanPatterns[j] = pats
		c.cleanValues[j] = vals
		c.cleanClasses[j] = classes
		c.numericCol[j] = text.IsNumericColumn(clean.Column(j), 0.9)
	}
	for _, p := range mineFDPairs(clean) {
		c.fds = append(c.fds, stats.FindFD(clean, p[0], p[1]))
	}
	return c
}

// Classify labels one erroneous cell. The dirty row supplies determinant
// context for rule-violation checks. Rules follow Section IV-A with a
// fixed precedence: MV, then T (edit distance <= 3), then RV (a legitimate
// value breaking a dependency), then numeric outliers, then PV (formats
// unseen in clean data), defaulting to O.
func (c *Classifier) Classify(dirtyRow []string, row, col int) Type {
	dirty := dirtyRow[col]
	cleanV := c.clean.Value(row, col)
	if text.IsNullLike(dirty) {
		return Missing
	}
	// Large numeric magnitude shifts are outliers even when the edit
	// distance is small ("50000" -> "50").
	if c.numericCol[col] {
		df, dok := text.ParseFloat(dirty)
		cf, cok := text.ParseFloat(cleanV)
		if dok && cok && cf != 0 {
			ratio := df / cf
			if ratio < 0 || ratio > 5 || ratio < 0.2 {
				return Outlier
			}
		}
	}
	// Characters from classes the clean column never uses signal a format
	// violation regardless of edit distance ("Kenya" -> "Kenya!!").
	for _, r := range dirty {
		if !c.cleanClasses[col][charClass(r)] {
			return PatternViolation
		}
	}
	if d := text.Levenshtein(dirty, cleanV); d > 0 && d <= 3 {
		return Typo
	}
	if c.cleanValues[col][dirty] {
		for _, fd := range c.fds {
			if fd.Dep != col {
				continue
			}
			det := dirtyRow[fd.Det]
			if want, ok := fd.Mapping[det]; ok && dirty != want {
				return RuleViolation
			}
		}
	}
	if c.numericCol[col] {
		if _, ok := text.ParseFloat(dirty); ok {
			return Outlier
		}
	}
	if !c.cleanPatterns[col][text.Generalize(dirty, text.L3)] {
		return PatternViolation
	}
	return Outlier
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
