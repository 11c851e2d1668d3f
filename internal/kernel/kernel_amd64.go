package kernel

// AVX2 bodies (kernel_amd64.s). Each runs the first lanes elements or
// accumulator lanes (a multiple of four) of its kernel; the exported
// wrapper has already checked every length and runs the rest in Go.

//go:noescape
func accumAVX2(acc, wt, x []float64, lanes int)

//go:noescape
func rank1AVX2(g, v, x []float64, lanes int)

//go:noescape
func adamAVX2(p, g, m, v []float64, k *AdamStep, lanes int)

//go:noescape
func sqDistAVX2(d, tileT, vec []float64, lanes int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func haveAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if eax, _ := xgetbv(); eax&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
