#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of the kernels in kernel.go. Every lane runs the same IEEE
// operations, in the same order, as the kernel's Go twin in twin.go: a
// VMULPD then a VADDPD (never a fused multiply-add), a VSUBPD before a
// square. The multiply-accumulate kernels keep a block of lanes in
// registers across all columns (32 lanes, then 16, then 4 at a time), so
// each lane's sum is one chain of adds in ascending column order, and
// independent blocks hide the add latency. Go operand order is reversed
// from Intel's: VSUBPD a, b, c computes c = b - a.

// MACC: tmp = wt[off(BX)] * Y8 (the broadcast x[c]); acc = acc + tmp.
#define MACC(off, acc, tmp) VMULPD off(BX), Y8, tmp; VADDPD tmp, acc, acc

// RANK: tmp = v * Y8 (the broadcast x[c]); g[off(BX)] = g + tmp.
#define RANK(off, v, tmp) VMULPD Y8, v, tmp; VADDPD off(BX), tmp, tmp; VMOVUPD tmp, off(BX)

// SQD: tmp = Y8 (the broadcast vec[j]) - tile[off(BX)]; acc = acc + tmp*tmp.
#define SQD(off, acc, tmp) VSUBPD off(BX), Y8, tmp; VMULPD tmp, tmp, tmp; VADDPD tmp, acc, acc

// Load and store eight, four or one vectors at ptr.
#define LOAD8(ptr) VMOVUPD 0(ptr), Y0; VMOVUPD 32(ptr), Y1; VMOVUPD 64(ptr), Y2; VMOVUPD 96(ptr), Y3; VMOVUPD 128(ptr), Y4; VMOVUPD 160(ptr), Y5; VMOVUPD 192(ptr), Y6; VMOVUPD 224(ptr), Y7
#define STORE8(ptr) VMOVUPD Y0, 0(ptr); VMOVUPD Y1, 32(ptr); VMOVUPD Y2, 64(ptr); VMOVUPD Y3, 96(ptr); VMOVUPD Y4, 128(ptr); VMOVUPD Y5, 160(ptr); VMOVUPD Y6, 192(ptr); VMOVUPD Y7, 224(ptr)
#define LOAD4(ptr) VMOVUPD 0(ptr), Y0; VMOVUPD 32(ptr), Y1; VMOVUPD 64(ptr), Y2; VMOVUPD 96(ptr), Y3
#define STORE4(ptr) VMOVUPD Y0, 0(ptr); VMOVUPD Y1, 32(ptr); VMOVUPD Y2, 64(ptr); VMOVUPD Y3, 96(ptr)

// Register use shared by the column-walking kernels:
//   DI  block of lanes in the accumulator (acc, g or d)
//   SI  block of lanes in the column-0 matrix tile (Accum, SqDist) or v (Rank1)
//   R8  column stride in bytes; DX, R9 the x (or vec) base and length
//   CX  lanes left; AX, BX, R10 the column walk's x pointer, column
//   pointer and columns left.

// COLS starts a column walk over the current block: BX at the block's
// lanes of column 0, AX at x[0], R10 columns left; jumps to done when
// there are no columns.
#define COLS(base, done) MOVQ base, BX; MOVQ DX, AX; MOVQ R9, R10; TESTQ R10, R10; JZ done

// NEXT advances the column walk and loops back to top while columns remain.
#define NEXT(top) ADDQ $8, AX; ADDQ R8, BX; DECQ R10; JNZ top

// func accumAVX2(acc, wt, x []float64, lanes int)
TEXT ·accumAVX2(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	SHLQ $3, R8
	MOVQ wt_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R9
	MOVQ lanes+72(FP), CX

accum32:
	CMPQ CX, $32
	JLT  accum16
	LOAD8(DI)
	COLS(SI, accum32done)

accum32col:
	VBROADCASTSD (AX), Y8
	MACC(0, Y0, Y9)
	MACC(32, Y1, Y10)
	MACC(64, Y2, Y11)
	MACC(96, Y3, Y12)
	MACC(128, Y4, Y9)
	MACC(160, Y5, Y10)
	MACC(192, Y6, Y11)
	MACC(224, Y7, Y12)
	NEXT(accum32col)

accum32done:
	STORE8(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  accum32

accum16:
	CMPQ CX, $16
	JLT  accum4
	LOAD4(DI)
	COLS(SI, accum16done)

accum16col:
	VBROADCASTSD (AX), Y8
	MACC(0, Y0, Y9)
	MACC(32, Y1, Y10)
	MACC(64, Y2, Y11)
	MACC(96, Y3, Y12)
	NEXT(accum16col)

accum16done:
	STORE4(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

accum4:
	CMPQ CX, $4
	JLT  accumret
	VMOVUPD (DI), Y0
	COLS(SI, accum4done)

accum4col:
	VBROADCASTSD (AX), Y8
	MACC(0, Y0, Y9)
	NEXT(accum4col)

accum4done:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     accum4

accumret:
	VZEROUPPER
	RET

// func rank1AVX2(g, v, x []float64, lanes int)
TEXT ·rank1AVX2(SB), NOSPLIT, $0-80
	MOVQ g_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), R8
	SHLQ $3, R8
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R9
	MOVQ lanes+72(FP), CX

rank32:
	CMPQ CX, $32
	JLT  rank16
	LOAD8(SI)
	COLS(DI, rank32done)

rank32col:
	VBROADCASTSD (AX), Y8
	RANK(0, Y0, Y9)
	RANK(32, Y1, Y10)
	RANK(64, Y2, Y11)
	RANK(96, Y3, Y12)
	RANK(128, Y4, Y9)
	RANK(160, Y5, Y10)
	RANK(192, Y6, Y11)
	RANK(224, Y7, Y12)
	NEXT(rank32col)

rank32done:
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  rank32

rank16:
	CMPQ CX, $16
	JLT  rank4
	LOAD4(SI)
	COLS(DI, rank16done)

rank16col:
	VBROADCASTSD (AX), Y8
	RANK(0, Y0, Y9)
	RANK(32, Y1, Y10)
	RANK(64, Y2, Y11)
	RANK(96, Y3, Y12)
	NEXT(rank16col)

rank16done:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

rank4:
	CMPQ CX, $4
	JLT  rankret
	VMOVUPD (SI), Y0
	COLS(DI, rank4done)

rank4col:
	VBROADCASTSD (AX), Y8
	RANK(0, Y0, Y9)
	NEXT(rank4col)

rank4done:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  rank4

rankret:
	VZEROUPPER
	RET

// func sqDistAVX2(d, tileT, vec []float64, lanes int)
TEXT ·sqDistAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), R8
	SHLQ $3, R8
	MOVQ tileT_base+24(FP), SI
	MOVQ vec_base+48(FP), DX
	MOVQ vec_len+56(FP), R9
	MOVQ lanes+72(FP), CX

sqd32:
	CMPQ CX, $32
	JLT  sqd16
	LOAD8(DI)
	COLS(SI, sqd32done)

sqd32col:
	VBROADCASTSD (AX), Y8
	SQD(0, Y0, Y9)
	SQD(32, Y1, Y10)
	SQD(64, Y2, Y11)
	SQD(96, Y3, Y12)
	SQD(128, Y4, Y13)
	SQD(160, Y5, Y14)
	SQD(192, Y6, Y15)
	SQD(224, Y7, Y9)
	NEXT(sqd32col)

sqd32done:
	STORE8(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  sqd32

sqd16:
	CMPQ CX, $16
	JLT  sqd4
	LOAD4(DI)
	COLS(SI, sqd16done)

sqd16col:
	VBROADCASTSD (AX), Y8
	SQD(0, Y0, Y9)
	SQD(32, Y1, Y10)
	SQD(64, Y2, Y11)
	SQD(96, Y3, Y12)
	NEXT(sqd16col)

sqd16done:
	STORE4(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX

sqd4:
	CMPQ CX, $4
	JLT  sqdret
	VMOVUPD (DI), Y0
	COLS(SI, sqd4done)

sqd4col:
	VBROADCASTSD (AX), Y8
	SQD(0, Y0, Y9)
	NEXT(sqd4col)

sqd4done:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     sqd4

sqdret:
	VZEROUPPER
	RET

// func adamAVX2(p, g, m, v []float64, k *AdamStep, lanes int)
//
// Per four elements: the optional decay g = g + L2*p, then
// m = Beta1*m + OneMinusBeta1*g, v = Beta2*v + (OneMinusBeta2*g)*g,
// p = p - (LR*(m/BC1)) / (sqrt(v/BC2) + Eps).
TEXT ·adamAVX2(SB), NOSPLIT, $0-112
	MOVQ p_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), R8
	MOVQ k+96(FP), AX
	MOVQ lanes+104(FP), CX

	VBROADCASTSD AdamStep_L2(AX), Y7
	VBROADCASTSD AdamStep_Beta1(AX), Y8
	VBROADCASTSD AdamStep_OneMinusBeta1(AX), Y9
	VBROADCASTSD AdamStep_Beta2(AX), Y10
	VBROADCASTSD AdamStep_OneMinusBeta2(AX), Y11
	VBROADCASTSD AdamStep_BC1(AX), Y12
	VBROADCASTSD AdamStep_BC2(AX), Y13
	VBROADCASTSD AdamStep_LR(AX), Y14
	VBROADCASTSD AdamStep_Eps(AX), Y15

	// BX != 0 when L2 != 0: shifting out the sign bit leaves ±0 as zero.
	MOVQ AdamStep_L2(AX), BX
	SHLQ $1, BX
	XORQ R9, R9

adamloop:
	CMPQ CX, $4
	JLT  adamret
	VMOVUPD (SI)(R9*1), Y0
	TESTQ   BX, BX
	JZ      adamnodecay
	VMULPD  (DI)(R9*1), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)(R9*1)

adamnodecay:
	VMULPD  (DX)(R9*1), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DX)(R9*1)
	VMULPD  (R8)(R9*1), Y10, Y2
	VMULPD  Y0, Y11, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (R8)(R9*1)
	VDIVPD  Y12, Y1, Y1
	VMULPD  Y1, Y14, Y1
	VDIVPD  Y13, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(R9*1), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(R9*1)
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     adamloop

adamret:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
