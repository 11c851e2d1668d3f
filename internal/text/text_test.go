package text

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Bob Johnson", []string{"bob", "johnson"}},
		{"the cat and the hat", []string{"cat", "hat"}},
		{"The Hospital", []string{"hospital"}}, // stop words drop in any case
		{"", nil},
		{"---", nil},
		{"surgical-infection prevention", []string{"surgical", "infection", "prevention"}},
		{"ABC123 def", []string{"abc123", "def"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"Bachelor", "Bechxlor", 2},
		{"same", "same", 0},
		{"日本", "日本語", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties of edit distance: symmetry, identity, triangle inequality.
func TestLevenshteinProperties(t *testing.T) {
	trim := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	sym := func(a, b string) bool {
		a, b = trim(a), trim(b)
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(a string) bool { return Levenshtein(trim(a), trim(a)) == 0 }
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	tri := func(a, b, c string) bool {
		a, b, c = trim(a), trim(b), trim(c)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error("triangle:", err)
	}
}

func TestGeneralize(t *testing.T) {
	// The paper's running example: "DOe123.".
	cases := []struct {
		in    string
		level PatternLevel
		want  string
	}{
		{"DOe123.", L1, "A[6]S[1]"},
		{"DOe123.", L2, "L[3]D[3]S[1]"},
		{"DOe123.", L3, "U[2]u[1]D[3]S[1]"},
		{"", L3, ""},
		{"  ", L3, "W[2]"},
		{"12:30 pm", L3, "D[2]S[1]D[2]W[1]u[2]"},
	}
	for _, c := range cases {
		if got := Generalize(c.in, c.level); got != c.want {
			t.Errorf("Generalize(%q, L%d) = %q, want %q", c.in, c.level, got, c.want)
		}
	}
}

// Property: values with identical character-class sequences share patterns,
// and L3 refines L2 refines L1 (equal L3 patterns imply equal L2 and L1).
func TestGeneralizeRefinementProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 16 {
			a = a[:16]
		}
		if len(b) > 16 {
			b = b[:16]
		}
		if Generalize(a, L3) == Generalize(b, L3) {
			return Generalize(a, L2) == Generalize(b, L2) && Generalize(a, L1) == Generalize(b, L1)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFloat(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"80000", 80000, true},
		{" 6,000 ", 6000, true},
		{"$1,234.5", 1234.5, true},
		{"-3.5", -3.5, true},
		{"", 0, false},
		{"abc", 0, false},
		{"12abc", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseFloat(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseFloat(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestIsNumericColumn(t *testing.T) {
	if !IsNumericColumn([]string{"1", "2", "", "3"}, 0.9) {
		t.Error("numeric column with empties should pass")
	}
	if IsNumericColumn([]string{"1", "two", "3", "4"}, 0.9) {
		t.Error("25% non-numeric should fail a 0.9 threshold")
	}
	if IsNumericColumn([]string{"", ""}, 0.5) {
		t.Error("all-empty column is not numeric")
	}
}

func TestIsNullLike(t *testing.T) {
	for _, v := range []string{"", "NULL", "n/a", " NaN ", "-", "?"} {
		if !IsNullLike(v) {
			t.Errorf("IsNullLike(%q) = false, want true", v)
		}
	}
	for _, v := range []string{"0", "false", "Phd"} {
		if IsNullLike(v) {
			t.Errorf("IsNullLike(%q) = true, want false", v)
		}
	}
}

func TestIsStopWord(t *testing.T) {
	if !stopWords["the"] || stopWords["hospital"] {
		t.Error("stop word classification wrong")
	}
	if got := Tokenize("The"); len(got) != 0 {
		t.Errorf("Tokenize(%q) = %v, want the stop word dropped regardless of case", "The", got)
	}
}

func TestTokenizeNoStopWordsProperty(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 40 {
			s = s[:40]
		}
		for _, tok := range Tokenize(s) {
			if stopWords[tok] || tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
