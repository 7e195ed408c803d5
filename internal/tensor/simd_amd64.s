//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 bodies of the two multiply-accumulate primitives. Every
// product is formed by VMULPD/VMULSD and rounded, then added by
// VADDPD/VADDSD: the binary64 multiply and add of MULSD/ADDSD under the
// same MXCSR, one independent output element per lane. No fused
// multiply-add instruction may appear in this file (`make nofma`).

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7              // highest basic leaf
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX     // leaf 1 ECX: OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX              // XCR0: SSE (1) and AVX (2) state saved by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX              // leaf 7 EBX: AVX2 (5)
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

// func axpyAVX2(a float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

loop16:
	CMPQ CX, $16
	JLT  loop4
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y4
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VADDPD 64(DI), Y3, Y3
	VADDPD 96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  loop16

loop4:
	CMPQ CX, $4
	JLT  tail
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JZ   done
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func gemmTile4x8AVX2(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
//
// Y0..Y7 hold d[r][0:4], d[r][4:8] for r = 0..3. Per k: two loads of
// the panel row, four broadcasts of a[r][k], eight multiplies, eight
// adds. Sixteen YMM registers: eight accumulators, two panel halves,
// four broadcasts, two products.
TEXT ·gemmTile4x8AVX2(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	MOVQ p_base+64(FP), BX
	MOVQ ldp+88(FP), R10
	MOVQ kc+96(FP), CX
	SHLQ $3, R8              // strides in bytes
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (DI)(R8*1), R11     // d row 1
	LEAQ (DI)(R8*2), R12     // d row 2
	LEAQ (R12)(R8*1), R13    // d row 3
	LEAQ (SI)(R9*2), DX      // a row 2; rows 1 and 3 are (SI)(R9*1), (DX)(R9*1)

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R11), Y2
	VMOVUPD 32(R11), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R13), Y6
	VMOVUPD 32(R13), Y7

	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VBROADCASTSD (DX), Y12
	VBROADCASTSD (DX)(R9*1), Y13
	VMULPD Y8, Y10, Y14
	VMULPD Y9, Y10, Y15
	VADDPD Y14, Y0, Y0
	VADDPD Y15, Y1, Y1
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VMULPD Y8, Y12, Y14
	VMULPD Y9, Y12, Y15
	VADDPD Y14, Y4, Y4
	VADDPD Y15, Y5, Y5
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	VZEROUPPER
	RET
