// Package criteria implements ZeroED's executable error-checking criteria
// (Section III-B). The paper has the LLM emit Python functions like
// `is_clean_hour_range(row, attr)`; offline we represent each criterion as
// a typed AST value with an EvalAt method over a tuple of a dataset.
// Executing every criterion of an attribute against a cell yields the
// binary error-reason-aware feature vector f_cri, exactly as
// `exec(f_t, D[i,j])` does in the paper. Induction of criteria from
// serialized samples lives here too, because it is the "reasoning" the
// simulated LLM performs.
package criteria

import (
	"fmt"
	"strings"

	"repro/internal/table"
	"repro/internal/text"
)

// Kind enumerates criterion families. Each corresponds to an error reason
// the LLM might encode: nullability, format, domain membership, numeric
// range, cross-attribute consistency, and typo proximity.
type Kind string

// Criterion kinds, covering the paper's Fig. 4 examples (cross-attribute
// consistency for Hospital, value-range checks for Flights) and the common
// single-attribute reasons.
const (
	KindNotNull     Kind = "not_null"      // value is not a missing placeholder
	KindPattern     Kind = "pattern"       // L3 pattern is one of the frequent shapes
	KindDomain      Kind = "domain"        // value belongs to the frequent-value domain
	KindRange       Kind = "range"         // numeric value within [Lo, Hi]
	KindFD          Kind = "fd"            // row[DetAttr] -> expected value of this attr
	KindCharset     Kind = "charset"       // value contains only allowed char classes
	KindLength      Kind = "length"        // rune length within [MinLen, MaxLen]
	KindTypoDomain  Kind = "typo_domain"   // value is NOT a near-miss of a frequent value
	KindValueFreq   Kind = "value_freq"    // value occurs at least MinCount times
	KindNumericType Kind = "numeric_parse" // value parses as a number
)

// Criterion is one executable error-checking rule for a single attribute.
// EvalAt returns true when the value *passes* (looks clean), matching the
// paper's is_clean_* convention.
type Criterion struct {
	Kind Kind
	Attr string // the attribute this criterion validates
	Name string // human-readable identifier, e.g. "is_clean_hour_range"

	// Pattern / domain parameters.
	Patterns map[string]bool // allowed L3 patterns
	Domain   map[string]bool // allowed values (lowercased)

	// Range parameters.
	Lo, Hi float64

	// FD parameters: row[DetAttr] determines this attribute via Mapping.
	DetAttr string
	Mapping map[string]string

	// Charset: allowed character classes (subset of "LUDSW" letters used
	// by text.Generalize at L2/L3 granularity).
	AllowedClasses map[byte]bool

	// Length bounds (runes).
	MinLen, MaxLen int

	// TypoDomain: frequent values to compare against; a value within
	// MaxDist of a frequent value but not equal to it fails.
	TypoTargets []string
	MaxDist     int

	// ValueFreq: minimum occurrence count in the column, with counts
	// captured at induction time.
	MinCount int
	Counts   map[string]int
}

// String renders a short identifier for logs and token accounting.
func (c *Criterion) String() string {
	return fmt.Sprintf("%s(%s)", c.Name, c.Attr)
}

// RowDependent reports whether the criterion's verdict depends on other
// attributes of the tuple (true only for FD criteria). Verdicts of
// row-independent criteria can be memoized per unique value.
func (c *Criterion) RowDependent() bool { return c.Kind == KindFD }

// EvalAt executes the criterion against tuple row of d, where col is the
// index of the criterion's attribute. It returns true when the cell passes
// the check. Missing-value handling: all kinds except NotNull treat
// null-like values as passing, so that the "missing" signal is carried by
// exactly one feature rather than polluting every criterion. An FD
// criterion reads its determinant from the same tuple; a determinant
// attribute missing from d's schema reads as the empty value. EvalAt is
// allocation-free, which matters because criteria run once per cell on
// the feature hot path.
func (c *Criterion) EvalAt(d *table.Dataset, row, col int) bool {
	v := d.Value(row, col)
	if c.Kind == KindFD && !text.IsNullLike(v) {
		det := ""
		if dc := d.ColIndex(c.DetAttr); dc >= 0 {
			det = d.Value(row, dc)
		}
		return c.evalFD(v, det)
	}
	return c.EvalValue(v)
}

func (c *Criterion) evalFD(v, det string) bool {
	want, ok := c.Mapping[det]
	if !ok {
		return true // unseen determinant: no evidence of violation
	}
	return v == want
}

// EvalValue executes the criterion against a bare value, ignoring tuple
// context. For every kind except FD this is the complete verdict; for FD it
// is the null-like fast path (nulls pass). Per-value-ID memo tables are
// built from this.
func (c *Criterion) EvalValue(v string) bool {
	if c.Kind == KindNotNull {
		return !text.IsNullLike(v)
	}
	if text.IsNullLike(v) {
		return true
	}
	switch c.Kind {
	case KindPattern:
		return c.Patterns[text.Generalize(v, text.L3)]
	case KindDomain:
		return c.Domain[strings.ToLower(v)]
	case KindRange:
		f, ok := text.ParseFloat(v)
		if !ok {
			return false
		}
		return f >= c.Lo && f <= c.Hi
	case KindCharset:
		for _, r := range v {
			cls := classOf(r)
			if !c.AllowedClasses[cls] {
				return false
			}
		}
		return true
	case KindLength:
		n := len([]rune(v))
		return n >= c.MinLen && n <= c.MaxLen
	case KindTypoDomain:
		for _, tgt := range c.TypoTargets {
			if v == tgt {
				return true
			}
		}
		for _, tgt := range c.TypoTargets {
			d := text.Levenshtein(strings.ToLower(v), strings.ToLower(tgt))
			if d > 0 && d <= c.MaxDist {
				return false // near-miss of a frequent value: likely typo
			}
		}
		return true
	case KindValueFreq:
		return c.Counts[v] >= c.MinCount
	case KindNumericType:
		_, ok := text.ParseFloat(v)
		return ok
	default:
		return true
	}
}

func classOf(r rune) byte {
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

// Set is the criteria set F_i for one attribute.
type Set struct {
	Attr     string
	Criteria []*Criterion
}

// PassRateAt returns the fraction of the set's criteria tuple row of d
// passes, used by Algorithm 1's data-verification step (Lines 15-20). col
// is the index of the set's attribute; an empty set yields 1.
func (s *Set) PassRateAt(d *table.Dataset, row, col int) float64 {
	if len(s.Criteria) == 0 {
		return 1
	}
	pass := 0
	for _, c := range s.Criteria {
		if c.EvalAt(d, row, col) {
			pass++
		}
	}
	return float64(pass) / float64(len(s.Criteria))
}

// AccuracyOnCleanAt evaluates one criterion against tuples believed clean
// and returns the fraction it passes — Algorithm 1's criteria-verification
// statistic (Lines 8-14). rows holds tuple indices into d, col the
// criterion's attribute index; empty input yields 1.
func AccuracyOnCleanAt(c *Criterion, d *table.Dataset, col int, rows []int) float64 {
	if len(rows) == 0 {
		return 1
	}
	pass := 0
	for _, r := range rows {
		if c.EvalAt(d, r, col) {
			pass++
		}
	}
	return float64(pass) / float64(len(rows))
}

// VerifySetAt removes criteria whose accuracy on believed-clean rows falls
// below threshold (the paper uses 0.5), returning the surviving set.
// cleanRows holds tuple indices into d, col the set's attribute index.
func VerifySetAt(s *Set, d *table.Dataset, col int, cleanRows []int, threshold float64) *Set {
	out := &Set{Attr: s.Attr}
	for _, c := range s.Criteria {
		if AccuracyOnCleanAt(c, d, col, cleanRows) >= threshold {
			out.Criteria = append(out.Criteria, c)
		}
	}
	return out
}
