package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Shapes every kernel is checked over: lane counts on both sides of each
// vector block (4, 16, 32 lanes) and column counts from none to the
// Hospital feature width.
var (
	widths = []int{1, 3, 4, 5, 12, 24, 31, 32, 33, 64, 65}
	inLens = []int{0, 1, 5, 17, 150}
)

// values draws n float64s, mixing normal draws with the edge values the two
// bodies must agree on: ±0, subnormals, ±1e300 (whose products overflow to
// ±Inf and then NaN) and exact 1.0.
func values(rng *rand.Rand, n int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300, 1}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = specials[rng.Intn(len(specials))]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

func clone(bufs [][]float64) [][]float64 {
	out := make([][]float64, len(bufs))
	for i, b := range bufs {
		out[i] = append([]float64(nil), b...)
	}
	return out
}

// setAVX2 selects the kernel bodies for the rest of the test.
func setAVX2(t testing.TB, on bool) {
	old := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = old })
}

// sameBits fails on the first element of any buffer whose bits differ.
func sameBits(t *testing.T, what, wantName, gotName string, want, got [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			w, g := want[i][j], got[i][j]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: buffer %d element %d: %s %v (%#x), %s %v (%#x)",
					what, i, j, wantName, w, math.Float64bits(w), gotName, g, math.Float64bits(g))
			}
		}
	}
}

// kernelCase is one kernel call over a set of buffers, plus the naive
// loop that defines its result.
type kernelCase struct {
	what   string
	bufs   [][]float64
	kernel func([][]float64)
	naive  func([][]float64)
}

// cases enumerates every kernel over every shape, each with inputs drawn
// from one seeded stream.
func cases() []kernelCase {
	rng := rand.New(rand.NewSource(1))
	var cs []kernelCase
	for _, n := range widths {
		for _, in := range inLens {
			cs = append(cs,
				kernelCase{
					what:   fmt.Sprintf("Accum n=%d in=%d", n, in),
					bufs:   [][]float64{values(rng, n), values(rng, in*n), values(rng, in)},
					kernel: func(b [][]float64) { Accum(b[0], b[1], b[2]) },
					naive: func(b [][]float64) {
						acc, wt, x := b[0], b[1], b[2]
						for r := range acc {
							for c := range x {
								acc[r] += wt[c*n+r] * x[c]
							}
						}
					},
				},
				kernelCase{
					what:   fmt.Sprintf("Rank1 n=%d in=%d", n, in),
					bufs:   [][]float64{values(rng, in*n), values(rng, n), values(rng, in)},
					kernel: func(b [][]float64) { Rank1(b[0], b[1], b[2]) },
					naive: func(b [][]float64) {
						g, v, x := b[0], b[1], b[2]
						for r := range v {
							for c := range x {
								g[c*n+r] += v[r] * x[c]
							}
						}
					},
				},
				kernelCase{
					what:   fmt.Sprintf("SqDist m=%d dim=%d", n, in),
					bufs:   [][]float64{values(rng, n), values(rng, in*n), values(rng, in)},
					kernel: func(b [][]float64) { SqDist(b[0], b[1], b[2]) },
					naive: func(b [][]float64) {
						d, tileT, vec := b[0], b[1], b[2]
						for t := range d {
							for j := range vec {
								e := vec[j] - tileT[j*n+t]
								d[t] += e * e
							}
						}
					},
				})
		}
		for _, l2 := range []float64{0, 1e-5} {
			for _, step := range []int{1, 7} {
				k := adamStep(step, 1e-3, l2)
				cs = append(cs, kernelCase{
					what: fmt.Sprintf("Adam n=%d l2=%v t=%d", n, l2, step),
					// Second moments must start non-negative, as Adam's do.
					bufs:   [][]float64{values(rng, n), values(rng, n), values(rng, n), absAll(values(rng, n))},
					kernel: func(b [][]float64) { Adam(b[0], b[1], b[2], b[3], k) },
					naive: func(b [][]float64) {
						p, g, m, v := b[0], b[1], b[2], b[3]
						for i := range p {
							if l2 != 0 {
								g[i] += l2 * p[i]
							}
							m[i] = k.Beta1*m[i] + k.OneMinusBeta1*g[i]
							v[i] = k.Beta2*v[i] + k.OneMinusBeta2*g[i]*g[i]
							p[i] -= k.LR * (m[i] / k.BC1) / (math.Sqrt(v[i]/k.BC2) + k.Eps)
						}
					},
				})
			}
		}
	}
	return cs
}

// adamStep builds an AdamStep the way nn does, from untyped constants.
func adamStep(t int, lr, l2 float64) *AdamStep {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	return &AdamStep{
		L2: l2, LR: lr, Eps: eps,
		Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2,
		BC1: 1 - math.Pow(beta1, float64(t)),
		BC2: 1 - math.Pow(beta2, float64(t)),
	}
}

func absAll(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = math.Abs(x)
	}
	return xs
}

// TestTwinsMatchNaive pins each Go twin, and its four-column unrolling, to
// the naive loop that defines the kernel, bit for bit.
func TestTwinsMatchNaive(t *testing.T) {
	setAVX2(t, false)
	for _, c := range cases() {
		want, got := clone(c.bufs), clone(c.bufs)
		c.naive(want)
		c.kernel(got)
		sameBits(t, c.what, "naive", "Go twin", want, got)
	}
}

// TestAVX2MatchesTwin compares each AVX2 body (with the Go twin running
// the lanes past its last full vector) against the Go twin alone, bit for
// bit, on every output buffer.
func TestAVX2MatchesTwin(t *testing.T) {
	if !haveAVX2() {
		t.Skip("CPU lacks AVX2")
	}
	for _, c := range cases() {
		twin, simd := clone(c.bufs), clone(c.bufs)
		setAVX2(t, false)
		c.kernel(twin)
		setAVX2(t, true)
		c.kernel(simd)
		sameBits(t, c.what, "Go twin", "AVX2", twin, simd)
	}
}

// TestShortBufferPanicsBeforeAssembly checks that every wrapper rejects a
// buffer whose length does not fit the kernel's shape with a Go panic, and
// that nothing was written first: the outputs are untouched.
func TestShortBufferPanicsBeforeAssembly(t *testing.T) {
	setAVX2(t, haveAVX2())
	const n, in = 36, 5
	rng := rand.New(rand.NewSource(2))
	k := adamStep(1, 1e-3, 1e-5)
	for _, c := range []struct {
		what string
		bufs [][]float64
		call func([][]float64)
	}{
		{"Accum short wt", [][]float64{values(rng, n), values(rng, in*n-1), values(rng, in)},
			func(b [][]float64) { Accum(b[0], b[1], b[2]) }},
		{"Accum short x", [][]float64{values(rng, n), values(rng, in*n), values(rng, in-1)},
			func(b [][]float64) { Accum(b[0], b[1], b[2]) }},
		{"Rank1 short g", [][]float64{values(rng, in*n-1), values(rng, n), values(rng, in)},
			func(b [][]float64) { Rank1(b[0], b[1], b[2]) }},
		{"Rank1 short x", [][]float64{values(rng, in*n), values(rng, n), values(rng, in-1)},
			func(b [][]float64) { Rank1(b[0], b[1], b[2]) }},
		{"Adam short g", [][]float64{values(rng, n), values(rng, n-1), values(rng, n), values(rng, n)},
			func(b [][]float64) { Adam(b[0], b[1], b[2], b[3], k) }},
		{"Adam short m", [][]float64{values(rng, n), values(rng, n), values(rng, n-1), values(rng, n)},
			func(b [][]float64) { Adam(b[0], b[1], b[2], b[3], k) }},
		{"Adam short v", [][]float64{values(rng, n), values(rng, n), values(rng, n), values(rng, n-1)},
			func(b [][]float64) { Adam(b[0], b[1], b[2], b[3], k) }},
		{"SqDist short tileT", [][]float64{values(rng, n), values(rng, in*n-1), values(rng, in)},
			func(b [][]float64) { SqDist(b[0], b[1], b[2]) }},
		{"SqDist short vec", [][]float64{values(rng, n), values(rng, in*n), values(rng, in-1)},
			func(b [][]float64) { SqDist(b[0], b[1], b[2]) }},
	} {
		bufs := clone(c.bufs)
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "kernel: ") {
					t.Fatalf("%s: recovered %v, want a kernel length panic", c.what, r)
				}
			}()
			c.call(bufs)
		}()
		sameBits(t, c.what, "input", "after panic", c.bufs, bufs)
	}
}

// benchBodies runs a kernel benchmark once on the Go twins and, when the
// CPU has AVX2, once on the AVX2 bodies.
func benchBodies(b *testing.B, run func(b *testing.B)) {
	b.Run("go", func(b *testing.B) { setAVX2(b, false); run(b) })
	if haveAVX2() {
		b.Run("avx2", func(b *testing.B) { setAVX2(b, true); run(b) })
	}
}

// normals draws n standard normals: benchmark inputs stay clear of the
// subnormals and overflows the exactness tests use, which would time
// microcode assists rather than the kernels.
func normals(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// BenchmarkAccum is layer 1 of the Hospital-shaped forward pass: 64 hidden
// units over 150 features.
func BenchmarkAccum(b *testing.B) {
	const n, in = 64, 150
	rng := rand.New(rand.NewSource(1))
	acc, wt, x := normals(rng, n), normals(rng, in*n), normals(rng, in)
	benchBodies(b, func(b *testing.B) {
		for b.Loop() {
			Accum(acc, wt, x)
		}
	})
}

// BenchmarkRank1 is the layer-1 gradient update: a 64x150 outer product.
func BenchmarkRank1(b *testing.B) {
	const n, in = 64, 150
	rng := rand.New(rand.NewSource(1))
	g, v, x := make([]float64, in*n), normals(rng, n), normals(rng, in)
	benchBodies(b, func(b *testing.B) {
		for b.Loop() {
			Rank1(g, v, x)
		}
	})
}

// BenchmarkAdam is one Adam step over the 64x150 layer-1 weights.
func BenchmarkAdam(b *testing.B) {
	const n = 64 * 150
	rng := rand.New(rand.NewSource(1))
	p, g, m, v := normals(rng, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64() * 1e-3
	}
	k := adamStep(3, 1e-3, 1e-5)
	benchBodies(b, func(b *testing.B) {
		for b.Loop() {
			Adam(p, g, m, v, k)
		}
	})
}

// BenchmarkSqDist is one k-means++ seeding scan: a centroid against 1000
// unique points of 150 coordinates.
func BenchmarkSqDist(b *testing.B) {
	const m, dim = 1000, 150
	rng := rand.New(rand.NewSource(1))
	d, tileT, vec := make([]float64, m), normals(rng, dim*m), normals(rng, dim)
	benchBodies(b, func(b *testing.B) {
		for b.Loop() {
			SqDist(d, tileT, vec)
		}
	})
}
