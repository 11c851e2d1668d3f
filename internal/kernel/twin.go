package kernel

import "math"

// The Go twins below are each kernel's portable body over the lanes
// [lo, n). With lo = 0 they are the whole kernel; after an AVX2 body they
// run only the lanes past its last full vector. Four columns (or
// coordinates) per pass amortize each accumulator's load and store over
// four multiply-adds, while every lane still takes its terms in ascending
// column order.

// accumGo is Accum over lanes [lo, len(acc)).
func accumGo(acc, wt, x []float64, lo int) {
	n := len(acc)
	a := acc[lo:]
	c := 0
	for ; c+4 <= len(x); c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		c0 := wt[(c+0)*n+lo:][:len(a)]
		c1 := wt[(c+1)*n+lo:][:len(a)]
		c2 := wt[(c+2)*n+lo:][:len(a)]
		c3 := wt[(c+3)*n+lo:][:len(a)]
		for r := range a {
			s := a[r] + c0[r]*x0
			s += c1[r] * x1
			s += c2[r] * x2
			s += c3[r] * x3
			a[r] = s
		}
	}
	for ; c < len(x); c++ {
		xc := x[c]
		col := wt[c*n+lo:][:len(a)]
		for r := range a {
			a[r] += col[r] * xc
		}
	}
}

// rank1Go is Rank1 over lanes [lo, len(v)).
func rank1Go(g, v, x []float64, lo int) {
	n := len(v)
	vs := v[lo:]
	c := 0
	for ; c+4 <= len(x); c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		g0 := g[(c+0)*n+lo:][:len(vs)]
		g1 := g[(c+1)*n+lo:][:len(vs)]
		g2 := g[(c+2)*n+lo:][:len(vs)]
		g3 := g[(c+3)*n+lo:][:len(vs)]
		for r, d := range vs {
			g0[r] += d * x0
			g1[r] += d * x1
			g2[r] += d * x2
			g3[r] += d * x3
		}
	}
	for ; c < len(x); c++ {
		xc := x[c]
		col := g[c*n+lo:][:len(vs)]
		for r, d := range vs {
			col[r] += d * xc
		}
	}
}

// adamGo is Adam over elements [lo, len(p)).
func adamGo(p, g, m, v []float64, k *AdamStep, lo int) {
	p = p[lo:]
	g = g[lo:][:len(p)]
	m = m[lo:][:len(p)]
	v = v[lo:][:len(p)]
	if k.L2 != 0 {
		for i := range g {
			g[i] += k.L2 * p[i]
		}
	}
	for i := range p {
		gi := g[i]
		m[i] = k.Beta1*m[i] + k.OneMinusBeta1*gi
		v[i] = k.Beta2*v[i] + k.OneMinusBeta2*gi*gi
		p[i] -= k.LR * (m[i] / k.BC1) / (math.Sqrt(v[i]/k.BC2) + k.Eps)
	}
}

// sqDistGo is SqDist over lanes [lo, len(d)). A squared difference is
// sign-insensitive, so either subtraction orientation gives the same bits.
func sqDistGo(d, tileT, vec []float64, lo int) {
	m := len(d)
	a := d[lo:]
	j := 0
	for ; j+4 <= len(vec); j += 4 {
		p0, p1, p2, p3 := vec[j], vec[j+1], vec[j+2], vec[j+3]
		c0 := tileT[(j+0)*m+lo:][:len(a)]
		c1 := tileT[(j+1)*m+lo:][:len(a)]
		c2 := tileT[(j+2)*m+lo:][:len(a)]
		c3 := tileT[(j+3)*m+lo:][:len(a)]
		for t := range a {
			e0 := p0 - c0[t]
			s := a[t] + e0*e0
			e1 := p1 - c1[t]
			s += e1 * e1
			e2 := p2 - c2[t]
			s += e2 * e2
			e3 := p3 - c3[t]
			s += e3 * e3
			a[t] = s
		}
	}
	for ; j < len(vec); j++ {
		pj := vec[j]
		col := tileT[j*m+lo:][:len(a)]
		for t := range a {
			e := pj - col[t]
			a[t] += e * e
		}
	}
}
