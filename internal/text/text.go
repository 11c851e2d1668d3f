// Package text implements the low-level string analysis primitives the
// ZeroED pipeline relies on: tokenization with stop-word removal (for
// semantic embeddings), Levenshtein edit distance (for typo reasoning),
// the three-level pattern generalization of Section III-B, and numeric
// parsing helpers.
package text

import (
	"strconv"
	"strings"
	"unicode"
)

// stopWords is a compact English stop-word list; ZeroED removes stop words
// before averaging token embeddings.
var stopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "he": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "to": true, "was": true, "were": true,
	"will": true, "with": true,
}

// Tokenize splits a cell value into lowercase alphanumeric tokens with stop
// words removed. An empty result means the value carries no semantic tokens
// (e.g. pure punctuation or NULL).
func Tokenize(v string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		t := strings.ToLower(cur.String())
		cur.Reset()
		if !stopWords[t] {
			toks = append(toks, t)
		}
	}
	for _, r := range v {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// Levenshtein computes the edit distance between two strings, operating on
// runes. It is used both by the typo-aware criteria and by the paper's
// error-type taxonomy (typos are errors within edit distance <= 3 of the
// clean value).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// PatternLevel selects one of the paper's three generalization levels.
type PatternLevel int

// The three generalization levels of Section III-B: L1 collapses all valid
// characters to one class, L2 distinguishes letters/digits/symbols, and L3
// further splits letters by case.
const (
	L1 PatternLevel = 1
	L2 PatternLevel = 2
	L3 PatternLevel = 3
)

// Generalize rewrites a value into its run-length-encoded character-class
// pattern at the given level, e.g. "DOe123." at L3 is "U[2]u[1]D[3]S[1]",
// at L2 "L[3]D[3]S[1]", and at L1 "A[6]S[1]" (alphanumerics vs symbols).
func Generalize(v string, level PatternLevel) string {
	var b strings.Builder
	var prev byte
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		b.WriteByte(prev)
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(run))
		b.WriteByte(']')
		run = 0
	}
	for _, r := range v {
		c := classify(r, level)
		if c != prev {
			flush()
			prev = c
		}
		run++
	}
	flush()
	return b.String()
}

// classify maps a rune to its single-byte class code for the given level.
// Classes: A alphanumeric, L letter, U upper, u lower, D digit, S symbol,
// W whitespace.
func classify(r rune, level PatternLevel) byte {
	switch {
	case unicode.IsSpace(r):
		return 'W'
	case unicode.IsDigit(r):
		if level == L1 {
			return 'A'
		}
		return 'D'
	case unicode.IsLetter(r):
		switch level {
		case L1:
			return 'A'
		case L2:
			return 'L'
		default:
			if unicode.IsUpper(r) {
				return 'U'
			}
			return 'u'
		}
	default:
		return 'S'
	}
}

// ParseFloat attempts to interpret a cell as a number, tolerating
// surrounding whitespace, thousands separators, and a leading currency
// symbol. The second result reports success.
func ParseFloat(v string) (float64, bool) {
	s := strings.TrimSpace(v)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// IsNumericColumn reports whether at least frac of the non-empty values
// parse as numbers. ZeroED's distribution analysis uses this to decide
// whether range criteria apply to an attribute.
func IsNumericColumn(values []string, frac float64) bool {
	parsed, nonEmpty := 0, 0
	for _, v := range values {
		if strings.TrimSpace(v) == "" {
			continue
		}
		nonEmpty++
		if _, ok := ParseFloat(v); ok {
			parsed++
		}
	}
	if nonEmpty == 0 {
		return false
	}
	return float64(parsed)/float64(nonEmpty) >= frac
}

// NullLikeValues are the explicit and implicit missing-value placeholders
// recognized by the missing-value criteria, mirroring the paper's "explicit
// and implicit placeholders" definition of MV errors.
var NullLikeValues = map[string]bool{
	"": true, "null": true, "nil": true, "none": true, "na": true,
	"n/a": true, "nan": true, "-": true, "?": true, "unknown": true,
	"missing": true, "empty": true,
}

// IsNullLike reports whether the value is an explicit or implicit
// missing-value placeholder.
func IsNullLike(v string) bool {
	return NullLikeValues[strings.ToLower(strings.TrimSpace(v))]
}
