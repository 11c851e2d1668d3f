// Package embed provides the semantic embedding substrate of ZeroED's
// feature representation. The paper uses pre-trained FastText word vectors;
// offline we reproduce FastText's own construction — a word vector is the
// sum of its character n-gram vectors — with deterministic feature-hashed
// n-gram vectors instead of pre-trained ones. Similar strings still map to
// nearby vectors, which is the only property the pipeline depends on
// (clustering locality and classifier input).
package embed

import (
	"math"
	"unicode/utf8"

	"repro/internal/text"
)

// DefaultDim is the embedding dimensionality used by the pipeline. Small
// enough to keep feature vectors compact, large enough for hashed n-grams
// to rarely collide destructively.
const DefaultDim = 32

// Embedder turns cell values into fixed-size dense vectors.
type Embedder struct {
	dim  int
	minN int
	maxN int
	// sign maps one hash bit to an n-gram's contribution to a coordinate:
	// -1/sqrt(dim) for a 0 bit, +1/sqrt(dim) for a 1 bit.
	sign [2]float64
}

// New creates an embedder with the given dimension. Character n-grams of
// length 3..6 are used, FastText's defaults.
func New(dim int) *Embedder {
	if dim <= 0 {
		dim = DefaultDim
	}
	scale := 1.0 / math.Sqrt(float64(dim))
	return &Embedder{dim: dim, minN: 3, maxN: 6, sign: [2]float64{-scale, scale}}
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// fnv1a64 is the 64-bit FNV-1a hash, inlined to avoid allocations in the
// hot loop. A string and a []byte holding the same bytes hash equally.
func fnv1a64[T string | []byte](s T) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// addNgram accumulates the hashed vector of one n-gram into acc. Each
// n-gram deterministically contributes ±1/sqrt(dim) per coordinate, derived
// from successive bits of iterated hashes — a random-projection sketch.
// Adding sign[0] = -scale is exactly subtracting scale, so the table lookup
// replaces a branch without changing a bit.
func (e *Embedder) addNgram(acc []float64, gram []byte) {
	h := fnv1a64(gram)
	acc = acc[:e.dim]
	for i := range acc {
		if i%64 == 0 && i > 0 {
			h = fnv1a64(string(gram) + string(rune('a'+i/64)))
		}
		acc[i] += e.sign[(h>>(uint(i)%64))&1]
	}
}

// stackToken is the padded-token length, in bytes, up to which wordVector
// works entirely in stack buffers; longer tokens fall back to the heap.
const stackToken = 64

// wordVector writes into acc (len dim) the embedding of a single token: the
// normalized sum of its padded character n-gram vectors (FastText's
// subword model). Each n-gram is hashed as a byte range of the padded
// token, delimited at rune starts. Tokens from text.Tokenize are valid
// UTF-8, so those ranges hold exactly the bytes of the n-gram's runes.
func (e *Embedder) wordVector(acc []float64, tok string) {
	clear(acc)
	var buf [stackToken]byte
	padded := append(append(append(buf[:0], '<'), tok...), '>')
	// starts[k] is the byte offset of rune k; a final entry closes the
	// last rune.
	var startBuf [stackToken + 1]int32
	starts := startBuf[:0]
	for i, b := range padded {
		if utf8.RuneStart(b) {
			starts = append(starts, int32(i))
		}
	}
	starts = append(starts, int32(len(padded)))
	runes := len(starts) - 1
	count := 0
	for n := e.minN; n <= e.maxN; n++ {
		if n > runes {
			break
		}
		for i := 0; i+n <= runes; i++ {
			e.addNgram(acc, padded[starts[i]:starts[i+n]])
			count++
		}
	}
	if count == 0 {
		// Token shorter than the smallest n-gram window: hash it whole.
		e.addNgram(acc, padded)
	}
	normalize(acc)
}

// EmbedInto writes the semantic vector for a cell value into dst, which
// must hold at least Dim() values: tokenize, drop stop words, average the
// token vectors (Section III-B's f_sem). Null-like or token-free values
// embed to the zero vector, which keeps them clustered together. Beyond
// tokenizing the value it allocates nothing for dimensions up to 64 and
// tokens up to stackToken-2 bytes.
func (e *Embedder) EmbedInto(dst []float64, value string) {
	dst = dst[:e.dim]
	clear(dst)
	toks := text.Tokenize(value)
	if len(toks) == 0 {
		return
	}
	var wvBuf [64]float64
	var wv []float64
	if e.dim <= len(wvBuf) {
		wv = wvBuf[:e.dim]
	} else {
		wv = make([]float64, e.dim)
	}
	for _, t := range toks {
		e.wordVector(wv, t)
		for i, x := range wv {
			dst[i] += x
		}
	}
	inv := 1.0 / float64(len(toks))
	for i := range dst {
		dst[i] *= inv
	}
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	inv := 1.0 / math.Sqrt(n)
	for i := range v {
		v[i] *= inv
	}
}
