// Package kernel holds the four float64 loops that dominate fitting and
// cold-path scoring: the column-major multiply-accumulate (nn's forward
// passes and its backward delta product), the rank-1 gradient update, the
// Adam step, and the batched squared distance (cluster's k-means scans).
//
// Every kernel is a set of independent lanes: lane r of Accum, for
// instance, receives acc[r] + w[r][0]*x[0] + w[r][1]*x[1] + ... strictly in
// ascending column order, and no lane reads another's result. So each
// kernel has two bodies that return the same bits: a portable Go loop (the
// "Go twin", which also runs the lanes past the last full vector), and on
// amd64 an AVX2 body (kernel_amd64.s) that runs four lanes per instruction.
// The AVX2 bodies follow fixed exactness rules:
//
//   - every lane runs the same IEEE operations in the same order as the Go
//     twin: VMULPD then VADDPD, never a fused multiply-add;
//   - the lanes past the last full four-lane vector run the Go twin;
//   - each body ends with VZEROUPPER;
//   - AVX2 is detected once, at init (CPUID leaf 7 EBX bit 5, plus OSXSAVE
//     and XGETBV showing the YMM state enabled); without it, or off amd64,
//     only the Go twins run;
//   - no AVX-512.
//
// The exported wrappers check every slice length against the kernel's
// shape before any assembly runs, so a short buffer panics in Go rather
// than being overrun.
package kernel

import "fmt"

// useAVX2 selects the AVX2 bodies. It is set once at init from the CPU;
// tests flip it to compare each AVX2 body with its Go twin.
var useAVX2 = haveAVX2()

// vecLanes is the number of leading lanes (of n) the AVX2 body runs: the
// full four-lane vectors, or none without AVX2. The Go twin runs the rest,
// and is skipped when there is none.
func vecLanes(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// checkLen panics unless a buffer has exactly the length its kernel's
// shape rule gives, so a short buffer never reaches an AVX2 body.
func checkLen(kernel, name string, got int, rule string, want int) {
	if got != want {
		panic(fmt.Sprintf("kernel: %s: len(%s) = %d, want %s = %d", kernel, name, got, rule, want))
	}
}

// Accum adds the matrix-vector product W·x into acc, where W is stored
// column-major in wt with n = len(acc) rows: acc[r] = acc[r] +
// wt[c*n+r]*x[c] for c ascending over len(x). Each accumulator receives its
// products in a naive dot product's exact left-to-right order, so the
// result is bit-identical to one. It panics unless len(wt) ==
// len(x)*len(acc).
func Accum(acc, wt, x []float64) {
	n := len(acc)
	checkLen("Accum", "wt", len(wt), "len(x)*len(acc)", len(x)*n)
	lo := vecLanes(n)
	if lo > 0 {
		accumAVX2(acc, wt, x, lo)
	}
	if lo < n {
		accumGo(acc, wt, x, lo)
	}
}

// Rank1 adds the outer product v·xᵀ into the column-major tile g with
// n = len(v) rows: g[c*n+r] = g[c*n+r] + v[r]*x[c]. Each element receives
// exactly one add. It panics unless len(g) == len(x)*len(v).
func Rank1(g, v, x []float64) {
	n := len(v)
	checkLen("Rank1", "g", len(g), "len(x)*len(v)", len(x)*n)
	lo := vecLanes(n)
	if lo > 0 {
		rank1AVX2(g, v, x, lo)
	}
	if lo < n {
		rank1Go(g, v, x, lo)
	}
}

// AdamStep holds the scalars of one Adam step. The AVX2 body reads the
// fields by name through go_asm.h, so they may be reordered freely.
type AdamStep struct {
	L2            float64 // weight decay; 0 skips the decay add
	Beta1         float64
	OneMinusBeta1 float64
	Beta2         float64
	OneMinusBeta2 float64
	BC1, BC2      float64 // bias corrections 1-β₁ᵗ and 1-β₂ᵗ
	LR, Eps       float64
}

// Adam applies one Adam step to the parameters p, elementwise. When
// k.L2 != 0 it first decays the gradient, g[i] = g[i] + L2*p[i]; then
//
//	m[i] = Beta1*m[i] + OneMinusBeta1*g[i]
//	v[i] = Beta2*v[i] + OneMinusBeta2*g[i]*g[i]
//	p[i] = p[i] - LR*(m[i]/BC1) / (sqrt(v[i]/BC2) + Eps)
//
// in exactly that expression order. It panics unless g, m and v have
// p's length.
func Adam(p, g, m, v []float64, k *AdamStep) {
	n := len(p)
	checkLen("Adam", "g", len(g), "len(p)", n)
	checkLen("Adam", "m", len(m), "len(p)", n)
	checkLen("Adam", "v", len(v), "len(p)", n)
	lo := vecLanes(n)
	if lo > 0 {
		adamAVX2(p, g, m, v, k, lo)
	}
	if lo < n {
		adamGo(p, g, m, v, k, lo)
	}
}

// SqDist adds the squared distances from vec to the m = len(d) vectors
// stored column-major in tileT (coordinate j of vector t at tileT[j*m+t]):
// d[t] = d[t] + (vec[j]-tileT[j*m+t])² for j ascending over len(vec). Each
// lane's sum has a naive squared-distance loop's exact association. It
// panics unless len(tileT) == len(vec)*len(d).
func SqDist(d, tileT, vec []float64) {
	m := len(d)
	checkLen("SqDist", "tileT", len(tileT), "len(vec)*len(d)", len(vec)*m)
	lo := vecLanes(m)
	if lo > 0 {
		sqDistAVX2(d, tileT, vec, lo)
	}
	if lo < m {
		sqDistGo(d, tileT, vec, lo)
	}
}
