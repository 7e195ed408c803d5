//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 bodies of the three multiply-accumulate primitives. Every
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

// func gatherAxpyAVX2(val []float64, idx []int, b []float64, ldb int, y []float64)
//
// Columns of y are taken 32, then 4, then 1 at a time; each strip is
// loaded once, receives val[k]·b[idx[k]][strip] for every k ascending,
// and is stored once. In the 32-column strip Y0..Y7 are the
// accumulators, Y8 the broadcast of val[k], Y9..Y15 products in flight.
// BX and DI advance with the strip, so AX = BX + idx[k]·ldb·8 is the
// strip's first element in row idx[k].
TEXT ·gatherAxpyAVX2(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), R8
	MOVQ idx_base+24(FP), DX
	MOVQ b_base+48(FP), BX
	MOVQ ldb+72(FP), R9
	MOVQ y_base+80(FP), DI
	MOVQ y_len+88(FP), CX
	SHLQ $3, R9              // row stride in bytes

strip32:
	CMPQ CX, $32
	JLT  strip4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ R10, R10

entry32:
	CMPQ R10, R8
	JGE  store32
	MOVQ (DX)(R10*8), AX
	IMULQ R9, AX
	ADDQ BX, AX
	VBROADCASTSD (SI)(R10*8), Y8
	VMULPD (AX), Y8, Y9
	VMULPD 32(AX), Y8, Y10
	VMULPD 64(AX), Y8, Y11
	VMULPD 96(AX), Y8, Y12
	VMULPD 128(AX), Y8, Y13
	VMULPD 160(AX), Y8, Y14
	VMULPD 192(AX), Y8, Y15
	VADDPD Y9, Y0, Y0
	VMULPD 224(AX), Y8, Y9
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y5, Y5
	VADDPD Y15, Y6, Y6
	VADDPD Y9, Y7, Y7
	INCQ R10
	JMP  entry32

store32:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  strip32

strip4:
	CMPQ CX, $4
	JLT  strip1
	VMOVUPD (DI), Y0
	XORQ R10, R10

entry4:
	CMPQ R10, R8
	JGE  store4
	MOVQ (DX)(R10*8), AX
	IMULQ R9, AX
	VBROADCASTSD (SI)(R10*8), Y8
	VMULPD (BX)(AX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ R10
	JMP  entry4

store4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  strip4

strip1:
	TESTQ CX, CX
	JZ   gathered
	VMOVSD (DI), X0
	XORQ R10, R10

entry1:
	CMPQ R10, R8
	JGE  store1
	MOVQ (DX)(R10*8), AX
	IMULQ R9, AX
	VMOVSD (SI)(R10*8), X8
	VMULSD (BX)(AX*1), X8, X9
	VADDSD X9, X0, X0
	INCQ R10
	JMP  entry1

store1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  strip1

gathered:
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
