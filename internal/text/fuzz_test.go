package text

import "testing"

// FuzzGeneralize checks that pattern generalization never panics and that
// refinement (L3 -> L2 -> L1) is preserved on arbitrary input.
func FuzzGeneralize(f *testing.F) {
	for _, seed := range []string{"", "DOe123.", "Bob Johnson", "12:30 p.m.", "日本語", "\x00\xff"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l1 := Generalize(s, L1)
		l2 := Generalize(s, L2)
		l3 := Generalize(s, L3)
		if (s == "") != (l3 == "") {
			t.Fatalf("emptiness mismatch: %q -> %q", s, l3)
		}
		// Each level is a run-length encoding; all encode the same rune
		// count.
		if runCount(l1) > runCount(l2) || runCount(l2) > runCount(l3) {
			t.Fatalf("coarser levels cannot have more runs: %q / %q / %q", l1, l2, l3)
		}
	})
}

func runCount(pattern string) int {
	n := 0
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '[' {
			n++
		}
	}
	return n
}

// FuzzLevenshtein checks metric properties on arbitrary byte strings.
func FuzzLevenshtein(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "abc")
	f.Add("日本", "日本語")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			t.Fatal("not symmetric")
		}
		if (d == 0) != (a == b) {
			// Invalid UTF-8 decodes to replacement runes, which can make
			// distinct byte strings rune-equal; compare as runes.
			if string([]rune(a)) != string([]rune(b)) && d == 0 {
				t.Fatalf("zero distance for distinct inputs %q %q", a, b)
			}
		}
		la, lb := len([]rune(a)), len([]rune(b))
		max := la
		if lb > max {
			max = lb
		}
		if d > max {
			t.Fatalf("distance %d exceeds longer length %d", d, max)
		}
	})
}

// FuzzTokenize checks the tokenizer never panics and never emits stop
// words or empty tokens.
func FuzzTokenize(f *testing.F) {
	f.Add("The quick brown fox")
	f.Add("")
	f.Add("a-b_c.d,e")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 128 {
			s = s[:128]
		}
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatal("empty token")
			}
			if stopWords[tok] {
				t.Fatalf("stop word %q leaked", tok)
			}
		}
	})
}

// FuzzParseFloat checks the lenient parser never panics.
func FuzzParseFloat(f *testing.F) {
	f.Add("$1,234.5")
	f.Add("-3e10")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		ParseFloat(s)
		IsNullLike(s)
	})
}
