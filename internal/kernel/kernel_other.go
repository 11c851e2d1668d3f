//go:build !amd64

package kernel

// Off amd64 there is no assembly: haveAVX2 is false, so the wrappers run
// only the Go twins and never reach these stubs.

func haveAVX2() bool { return false }

func accumAVX2(acc, wt, x []float64, lanes int)             { panic("kernel: no AVX2 body") }
func rank1AVX2(g, v, x []float64, lanes int)                { panic("kernel: no AVX2 body") }
func adamAVX2(p, g, m, v []float64, k *AdamStep, lanes int) { panic("kernel: no AVX2 body") }
func sqDistAVX2(d, tileT, vec []float64, lanes int)         { panic("kernel: no AVX2 body") }
