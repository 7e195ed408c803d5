//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 (YMM) and AVX-512 (ZMM) bodies of the three multiply-
// accumulate primitives. Every multiply-accumulate is one
// VFMADD231PD/VFMADD231SD into the accumulator: acc = a·b + acc rounded
// once, the binary64 operation math.FMA specifies, one independent
// output element per lane, whatever the lane count. No separate multiply
// or add of a product may appear in this file (`make fma`).

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
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
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
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
	VMOVUPD (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  loop4

tail:
	TESTQ CX, CX
	JZ   done
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func axpyAVX512(a float64, x, y []float64)
TEXT ·axpyAVX512(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Z0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

loop32:
	CMPQ CX, $32
	JLT  loop8
	VMOVUPD (DI), Z1
	VMOVUPD 64(DI), Z2
	VMOVUPD 128(DI), Z3
	VMOVUPD 192(DI), Z4
	VFMADD231PD (SI), Z0, Z1
	VFMADD231PD 64(SI), Z0, Z2
	VFMADD231PD 128(SI), Z0, Z3
	VFMADD231PD 192(SI), Z0, Z4
	VMOVUPD Z1, (DI)
	VMOVUPD Z2, 64(DI)
	VMOVUPD Z3, 128(DI)
	VMOVUPD Z4, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, CX
	JMP  loop32

loop8:
	CMPQ CX, $8
	JLT  tail4
	VMOVUPD (DI), Z1
	VFMADD231PD (SI), Z0, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  loop8

tail4:
	CMPQ CX, $4
	JLT  tail
	VMOVUPD (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

tail:
	TESTQ CX, CX
	JZ   done
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  tail

done:
	VZEROUPPER
	RET

// func gatherAxpyAVX2(val []float64, idx []int, b []float64, ldb int, y []float64)
TEXT ·gatherAxpyAVX2(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), R8
	MOVQ idx_base+24(FP), DX
	MOVQ b_base+48(FP), BX
	MOVQ ldb+72(FP), R9
	MOVQ y_base+80(FP), DI
	MOVQ y_len+88(FP), CX
	SHLQ $3, R9              // row stride in bytes
	JMP  gatherTails<>(SB)

// gatherTails<> is GatherAxpy on YMM registers. Both gather bodies jump
// to it with SI = val, R8 = len(val), DX = idx, BX = b, R9 = b's row
// stride in bytes, DI = y and CX = len(y); it returns to their caller.
//
// Columns of y are taken 32, then 4, then 1 at a time; each strip is
// loaded once, receives val[k]·b[idx[k]][strip] for every k ascending,
// and is stored once. In the 32-column strip Y0..Y7 are the
// accumulators and Y8 the broadcast of val[k].
// BX and DI advance with the strip, so AX = BX + idx[k]·ldb·8 is the
// strip's first element in row idx[k].
TEXT gatherTails<>(SB), NOSPLIT|NOFRAME, $0-0
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
	VFMADD231PD (AX), Y8, Y0
	VFMADD231PD 32(AX), Y8, Y1
	VFMADD231PD 64(AX), Y8, Y2
	VFMADD231PD 96(AX), Y8, Y3
	VFMADD231PD 128(AX), Y8, Y4
	VFMADD231PD 160(AX), Y8, Y5
	VFMADD231PD 192(AX), Y8, Y6
	VFMADD231PD 224(AX), Y8, Y7
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
	VFMADD231PD (BX)(AX*1), Y8, Y0
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
	VFMADD231SD (BX)(AX*1), X8, X0
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

// func gatherAxpyAVX512(val []float64, idx []int, b []float64, ldb int, y []float64)
//
// gatherTails<> behind a wider strip: columns of y are taken 128 at a
// time first — Z0..Z15 the accumulators, Z16 the broadcast of val[k] —
// and what is left goes on to the 32-, 4- and 1-column strips.
TEXT ·gatherAxpyAVX512(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), SI
	MOVQ val_len+8(FP), R8
	MOVQ idx_base+24(FP), DX
	MOVQ b_base+48(FP), BX
	MOVQ ldb+72(FP), R9
	MOVQ y_base+80(FP), DI
	MOVQ y_len+88(FP), CX
	SHLQ $3, R9              // row stride in bytes

strip:
	CMPQ CX, $128
	JGE  strip128
	JMP  gatherTails<>(SB)

strip128:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11
	VMOVUPD 768(DI), Z12
	VMOVUPD 832(DI), Z13
	VMOVUPD 896(DI), Z14
	VMOVUPD 960(DI), Z15
	XORQ R10, R10

entry:
	CMPQ R10, R8
	JGE  store
	MOVQ (DX)(R10*8), AX
	IMULQ R9, AX
	ADDQ BX, AX
	VBROADCASTSD (SI)(R10*8), Z16
	VFMADD231PD (AX), Z16, Z0
	VFMADD231PD 64(AX), Z16, Z1
	VFMADD231PD 128(AX), Z16, Z2
	VFMADD231PD 192(AX), Z16, Z3
	VFMADD231PD 256(AX), Z16, Z4
	VFMADD231PD 320(AX), Z16, Z5
	VFMADD231PD 384(AX), Z16, Z6
	VFMADD231PD 448(AX), Z16, Z7
	VFMADD231PD 512(AX), Z16, Z8
	VFMADD231PD 576(AX), Z16, Z9
	VFMADD231PD 640(AX), Z16, Z10
	VFMADD231PD 704(AX), Z16, Z11
	VFMADD231PD 768(AX), Z16, Z12
	VFMADD231PD 832(AX), Z16, Z13
	VFMADD231PD 896(AX), Z16, Z14
	VFMADD231PD 960(AX), Z16, Z15
	INCQ R10
	JMP  entry

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)
	ADDQ $1024, DI
	ADDQ $1024, BX
	SUBQ $128, CX
	JMP  strip

// func gemmTile4x8AVX2(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
//
// Y0..Y7 hold d[r][0:4], d[r][4:8] for r = 0..3. Per k: two loads of
// the panel row, four broadcasts of a[r][k], eight fused multiply-adds.
// Fourteen of the sixteen YMM registers: eight accumulators, two panel
// halves, four broadcasts.
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
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
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

// func gemmTile8x16AVX512(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
//
// Z0..Z15 hold d[r][0:8], d[r][8:16] for r = 0..7. Per k: two loads of
// the panel row, eight broadcasts of a[r][k], sixteen fused
// multiply-adds. Twenty-six ZMM registers: sixteen accumulators, two
// panel halves, eight broadcasts. Row r of a is SI + r·lda: R11, R12 and
// R13 hold 3·lda, 5·lda and 7·lda.
TEXT ·gemmTile8x16AVX512(SB), NOSPLIT, $0-104
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
	LEAQ (R9)(R9*2), R11     // 3·lda
	LEAQ (R9)(R9*4), R12     // 5·lda
	LEAQ (R11)(R9*4), R13    // 7·lda

	MOVQ DI, AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	ADDQ R8, AX
	VMOVUPD (AX), Z2
	VMOVUPD 64(AX), Z3
	ADDQ R8, AX
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	ADDQ R8, AX
	VMOVUPD (AX), Z6
	VMOVUPD 64(AX), Z7
	ADDQ R8, AX
	VMOVUPD (AX), Z8
	VMOVUPD 64(AX), Z9
	ADDQ R8, AX
	VMOVUPD (AX), Z10
	VMOVUPD 64(AX), Z11
	ADDQ R8, AX
	VMOVUPD (AX), Z12
	VMOVUPD 64(AX), Z13
	ADDQ R8, AX
	VMOVUPD (AX), Z14
	VMOVUPD 64(AX), Z15

	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(R9*1), Z19
	VBROADCASTSD (SI)(R9*2), Z20
	VBROADCASTSD (SI)(R11*1), Z21
	VBROADCASTSD (SI)(R9*4), Z22
	VBROADCASTSD (SI)(R12*1), Z23
	VBROADCASTSD (SI)(R11*2), Z24
	VBROADCASTSD (SI)(R13*1), Z25
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VFMADD231PD Z16, Z19, Z2
	VFMADD231PD Z17, Z19, Z3
	VFMADD231PD Z16, Z20, Z4
	VFMADD231PD Z17, Z20, Z5
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7
	VFMADD231PD Z16, Z22, Z8
	VFMADD231PD Z17, Z22, Z9
	VFMADD231PD Z16, Z23, Z10
	VFMADD231PD Z17, Z23, Z11
	VFMADD231PD Z16, Z24, Z12
	VFMADD231PD Z17, Z24, Z13
	VFMADD231PD Z16, Z25, Z14
	VFMADD231PD Z17, Z25, Z15
	ADDQ $8, SI
	ADDQ R10, BX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z14, (DI)
	VMOVUPD Z15, 64(DI)
	VZEROUPPER
	RET

// func gemmTile4x16AVX512(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
//
// The first four rows of gemmTile8x16AVX512: Z0..Z7 accumulate, Z16 and
// Z17 are the panel halves, Z18..Z21 the broadcasts.
TEXT ·gemmTile4x16AVX512(SB), NOSPLIT, $0-104
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
	LEAQ (R9)(R9*2), R11     // 3·lda

	MOVQ DI, AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	ADDQ R8, AX
	VMOVUPD (AX), Z2
	VMOVUPD 64(AX), Z3
	ADDQ R8, AX
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	ADDQ R8, AX
	VMOVUPD (AX), Z6
	VMOVUPD 64(AX), Z7

	TESTQ CX, CX
	JZ   store

loop:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(R9*1), Z19
	VBROADCASTSD (SI)(R9*2), Z20
	VBROADCASTSD (SI)(R11*1), Z21
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VFMADD231PD Z16, Z19, Z2
	VFMADD231PD Z17, Z19, Z3
	VFMADD231PD Z16, Z20, Z4
	VFMADD231PD Z17, Z20, Z5
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7
	ADDQ $8, SI
	ADDQ R10, BX
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ R8, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	VZEROUPPER
	RET
