package embed

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/text"
)

// refAddNgram, refWordVector and refEmbed are the reference embedder: each
// n-gram materialized as a string of runes, its hash bits applied with a
// branch. The production embedder must match it bit for bit.
func refAddNgram(e *Embedder, acc []float64, gram string) {
	h := fnv1a64(gram)
	scale := 1.0 / math.Sqrt(float64(e.dim))
	for i := 0; i < e.dim; i++ {
		if i%64 == 0 && i > 0 {
			h = fnv1a64(gram + string(rune('a'+i/64)))
		}
		if (h>>(uint(i)%64))&1 == 1 {
			acc[i] += scale
		} else {
			acc[i] -= scale
		}
	}
}

func refWordVector(e *Embedder, tok string) []float64 {
	acc := make([]float64, e.dim)
	padded := "<" + tok + ">"
	rs := []rune(padded)
	count := 0
	for n := e.minN; n <= e.maxN; n++ {
		if n > len(rs) {
			break
		}
		for i := 0; i+n <= len(rs); i++ {
			refAddNgram(e, acc, string(rs[i:i+n]))
			count++
		}
	}
	if count == 0 {
		refAddNgram(e, acc, padded)
	}
	normalize(acc)
	return acc
}

func refEmbed(e *Embedder, value string) []float64 {
	toks := text.Tokenize(value)
	acc := make([]float64, e.dim)
	if len(toks) == 0 {
		return acc
	}
	for _, t := range toks {
		for i, x := range refWordVector(e, t) {
			acc[i] += x
		}
	}
	inv := 1.0 / float64(len(toks))
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// embed returns value's embedding in a fresh slice.
func embed(e *Embedder, value string) []float64 {
	out := make([]float64, e.Dim())
	e.EmbedInto(out, value)
	return out
}

// cosine returns the cosine similarity between two vectors, 0 when either
// is zero.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// sameBits reports whether EmbedInto, into a fresh and into a dirty slice,
// matches the reference embedding of value bit for bit.
func sameBits(e *Embedder, value string) bool {
	want := refEmbed(e, value)
	into := make([]float64, e.dim+1)
	into[0] = 7 // EmbedInto must overwrite, not accumulate
	e.EmbedInto(into, value)
	for i, got := range embed(e, value) {
		if math.Float64bits(got) != math.Float64bits(want[i]) ||
			math.Float64bits(into[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

var embedDims = []int{1, 32, 64, 65, 100}

// TestEmbedMatchesReference pins the byte-offset, branch-free embedder to
// the reference on multibyte runes, tokens longer than the stack buffers,
// short tokens, and dimensions on both sides of the 64-bit rehash.
func TestEmbedMatchesReference(t *testing.T) {
	long := strings.Repeat("abcdefghij", 9)
	values := []string{
		"", "x", "ab", "Bob Johnson", "surgical infection prevention",
		"日本語テスト", "naïve café Ωmega", "Ünïcödé-ßtraße 12", "😀😃x😄",
		"étoile", long, long + "日本" + long, strings.Repeat("語", 40),
		"a1 b2 c3 the of", "MiXeD CaSe 0042",
	}
	for _, dim := range embedDims {
		e := New(dim)
		for _, v := range values {
			if !sameBits(e, v) {
				t.Errorf("dim %d: Embed(%q) differs from the reference", dim, v)
			}
		}
	}
}

// TestEmbedMatchesReferenceProperty checks the same equivalence on random
// strings.
func TestEmbedMatchesReferenceProperty(t *testing.T) {
	for _, dim := range embedDims {
		e := New(dim)
		if err := quick.Check(func(v string) bool { return sameBits(e, v) }, nil); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
}

// TestWordVectorZeroAlloc guards the per-token path: a token that fits the
// stack buffers embeds without allocating at any dimension up to 64.
func TestWordVectorZeroAlloc(t *testing.T) {
	for _, dim := range []int{1, 32, 64} {
		e := New(dim)
		acc := make([]float64, dim)
		for _, tok := range []string{"x", "surgical", "straße日本"} {
			if allocs := testing.AllocsPerRun(100, func() { e.wordVector(acc, tok) }); allocs != 0 {
				t.Errorf("dim %d: wordVector(%q) allocates %v per run, want 0", dim, tok, allocs)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	e := New(32)
	a := embed(e, "Bob Johnson")
	b := embed(e, "Bob Johnson")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding must be deterministic")
		}
	}
}

func TestDim(t *testing.T) {
	if got := New(0).Dim(); got != DefaultDim {
		t.Errorf("default dim = %d, want %d", got, DefaultDim)
	}
	if got := len(embed(New(16), "x")); got != 16 {
		t.Errorf("len(embedding) = %d, want 16", got)
	}
}

func TestEmptyAndNullEmbedToZero(t *testing.T) {
	e := New(32)
	for _, v := range []string{"", "   ", "---"} {
		vec := embed(e, v)
		for _, x := range vec {
			if x != 0 {
				t.Errorf("Embed(%q) should be zero vector", v)
				break
			}
		}
	}
}

func TestSimilarStringsCloser(t *testing.T) {
	e := New(64)
	bachelor := embed(e, "Bachelor")
	variant := embed(e, "Bachelors") // shares nearly all n-grams
	other := embed(e, "Pneumonia")   // unrelated word
	simVariant := cosine(bachelor, variant)
	simOther := cosine(bachelor, other)
	if simVariant <= simOther+0.2 {
		t.Errorf("variant similarity %v should clearly exceed unrelated similarity %v", simVariant, simOther)
	}
}

func TestIdenticalCosineOne(t *testing.T) {
	e := New(32)
	v := embed(e, "surgical infection prevention")
	if got := cosine(v, v); math.Abs(got-1) > 1e-9 {
		t.Errorf("cosine(v,v) = %v, want 1", got)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := cosine([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
}

func TestShortTokens(t *testing.T) {
	e := New(32)
	// Single-character tokens are shorter than the minimum n-gram after
	// padding still works (padded "x" -> "<x>" has length 3).
	v := embed(e, "x")
	var n float64
	for _, c := range v {
		n += c * c
	}
	if n == 0 {
		t.Error("single-char token should not embed to zero")
	}
}

// Property: cosine similarity of any two embeddings lies in [-1, 1] and
// embeddings are bounded (averaged unit vectors).
func TestEmbedBoundsProperty(t *testing.T) {
	e := New(32)
	f := func(a, b string) bool {
		if len(a) > 24 {
			a = a[:24]
		}
		if len(b) > 24 {
			b = b[:24]
		}
		va, vb := embed(e, a), embed(e, b)
		c := cosine(va, vb)
		if c < -1-1e-9 || c > 1+1e-9 {
			return false
		}
		var n float64
		for _, x := range va {
			n += x * x
		}
		return n <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEmbed(b *testing.B) {
	e := New(DefaultDim)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		embed(e, "surgical infection prevention measure code")
	}
}

// FuzzEmbed checks the embedder never panics and always returns the
// configured dimensionality with bounded norm.
func FuzzEmbed(f *testing.F) {
	for _, s := range []string{"", "Bob Johnson", "日本語テスト", "\x00\xff\xfe", "a"} {
		f.Add(s)
	}
	e := New(16)
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 64 {
			s = s[:64]
		}
		v := embed(e, s)
		if len(v) != 16 {
			t.Fatalf("dim %d, want 16", len(v))
		}
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		if norm > 1+1e-9 || math.IsNaN(norm) {
			t.Fatalf("norm %v out of bounds", norm)
		}
	})
}
