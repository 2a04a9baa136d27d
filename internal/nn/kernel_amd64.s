#include "textflag.h"

// The accBlock kernels compute, for a block of 24, 16, 8 or 4 output
// columns,
//
//	o[0:w] += Σ_k a[k·astride] · b[k·ldb + 0:w]    (k = 0 … kn-1 ascending)
//
// keeping the block in YMM accumulators for the whole k loop. Terms
// whose a entry compares equal to zero (+0 or −0, not NaN) are skipped,
// exactly like Go's `if av == 0 { continue }`. Every lane does one
// rounded VMULPD and then one rounded VADDPD with the accumulator as
// the first addend: the scalar `o += a*b` sequence on amd64 (MULSD,
// ADDSD), so the results are bit-identical to the portable loop. No FMA,
// and the reduction over k is never reordered or split. The Go wrapper
// (rowAccAVX) bounds-checks o, a and b before every call; astride and
// ldb are in elements, kn ≥ 0.

// Register use: DI = o, SI = &a[k·astride], DX = &b[k·ldb],
// R8 = astride in bytes, R9 = ldb in bytes, CX = k terms left,
// X3 = +0 for the zero test, Y0 = broadcast a, Y4–Y9 = accumulators,
// Y10–Y15 = products.
#define KERNEL_ARGS \
	MOVQ o+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ astride+16(FP), R8; \
	SHLQ $3, R8; \
	MOVQ b+24(FP), DX; \
	MOVQ ldb+32(FP), R9; \
	SHLQ $3, R9; \
	MOVQ kn+40(FP), CX; \
	VXORPD X3, X3, X3

// func accBlock24(o, a *float64, astride int, b *float64, ldb, kn int)
TEXT ·accBlock24(SB), NOSPLIT, $0-48
	KERNEL_ARGS
	TESTQ CX, CX
	JEQ   done24
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD 128(DI), Y8
	VMOVUPD 160(DI), Y9

loop24:
	VBROADCASTSD (SI), Y0
	VUCOMISD     X3, X0
	JNE          mul24
	JPC          next24 // ordered zero (+0 or −0): skip the term

mul24:
	VMULPD 0(DX), Y0, Y10
	VMULPD 32(DX), Y0, Y11
	VMULPD 64(DX), Y0, Y12
	VMULPD 96(DX), Y0, Y13
	VMULPD 128(DX), Y0, Y14
	VMULPD 160(DX), Y0, Y15
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7
	VADDPD Y14, Y8, Y8
	VADDPD Y15, Y9, Y9

next24:
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ CX
	JNE  loop24

	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, 128(DI)
	VMOVUPD Y9, 160(DI)

done24:
	VZEROUPPER
	RET

// func accBlock16(o, a *float64, astride int, b *float64, ldb, kn int)
TEXT ·accBlock16(SB), NOSPLIT, $0-48
	KERNEL_ARGS
	TESTQ CX, CX
	JEQ   done16
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7

loop16:
	VBROADCASTSD (SI), Y0
	VUCOMISD     X3, X0
	JNE          mul16
	JPC          next16 // ordered zero (+0 or −0): skip the term

mul16:
	VMULPD 0(DX), Y0, Y10
	VMULPD 32(DX), Y0, Y11
	VMULPD 64(DX), Y0, Y12
	VMULPD 96(DX), Y0, Y13
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y12, Y6, Y6
	VADDPD Y13, Y7, Y7

next16:
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ CX
	JNE  loop16

	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)

done16:
	VZEROUPPER
	RET

// func accBlock8(o, a *float64, astride int, b *float64, ldb, kn int)
TEXT ·accBlock8(SB), NOSPLIT, $0-48
	KERNEL_ARGS
	TESTQ CX, CX
	JEQ   done8
	VMOVUPD 0(DI), Y4
	VMOVUPD 32(DI), Y5

loop8:
	VBROADCASTSD (SI), Y0
	VUCOMISD     X3, X0
	JNE          mul8
	JPC          next8 // ordered zero (+0 or −0): skip the term

mul8:
	VMULPD 0(DX), Y0, Y10
	VMULPD 32(DX), Y0, Y11
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5

next8:
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ CX
	JNE  loop8

	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)

done8:
	VZEROUPPER
	RET

// func accBlock4(o, a *float64, astride int, b *float64, ldb, kn int)
TEXT ·accBlock4(SB), NOSPLIT, $0-48
	KERNEL_ARGS
	TESTQ CX, CX
	JEQ   done4
	VMOVUPD 0(DI), Y4

loop4:
	VBROADCASTSD (SI), Y0
	VUCOMISD     X3, X0
	JNE          mul4
	JPC          next4 // ordered zero (+0 or −0): skip the term

mul4:
	VMULPD 0(DX), Y0, Y10
	VADDPD Y10, Y4, Y4

next4:
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ CX
	JNE  loop4

	VMOVUPD Y4, 0(DI)

done4:
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
