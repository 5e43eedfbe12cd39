//go:build amd64

#include "textflag.h"

// AVX2 axpy primitives (see axpy_amd64.go). The vector lanes hold
// adjacent output elements j — never partial sums of one element — so
// the per-element accumulation order matches the generic loops exactly
// and the results are bitwise identical to them.
//
// All accumulations are written dst = dst + term (first source is the
// running sum), matching the Go references' NaN-propagation order.

// ---------------------------------------------------------------------
// axpy42: two output rows from four shared input rows.
//
// func axpy42AVX2(c0, c1, b0, b1, b2, b3 *float64, vw *[8]float64, n int)
TEXT ·axpy42AVX2(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ vw+48(FP), AX
	MOVQ n+56(FP), CX

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7

loop4:
	CMPQ CX, $4
	JLT tail1
	VMOVUPD (R8), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	VMOVUPD (DI), Y12
	VMOVUPD (SI), Y13
	VMULPD Y0, Y8, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y1, Y9, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y2, Y10, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y3, Y11, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD Y12, (DI)
	VMULPD Y4, Y8, Y15
	VADDPD Y15, Y13, Y13
	VMULPD Y5, Y9, Y15
	VADDPD Y15, Y13, Y13
	VMULPD Y6, Y10, Y15
	VADDPD Y15, Y13, Y13
	VMULPD Y7, Y11, Y15
	VADDPD Y15, Y13, Y13
	VMOVUPD Y13, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  loop4

tail1:
	TESTQ CX, CX
	JZ done
	VMOVSD (R8), X8
	VMOVSD (R9), X9
	VMOVSD (R10), X10
	VMOVSD (R11), X11
	VMOVSD (DI), X12
	VMOVSD (SI), X13
	VMULSD X0, X8, X14
	VADDSD X14, X12, X12
	VMULSD X1, X9, X14
	VADDSD X14, X12, X12
	VMULSD X2, X10, X14
	VADDSD X14, X12, X12
	VMULSD X3, X11, X14
	VADDSD X14, X12, X12
	VMOVSD X12, (DI)
	VMULSD X4, X8, X15
	VADDSD X15, X13, X13
	VMULSD X5, X9, X15
	VADDSD X15, X13, X13
	VMULSD X6, X10, X15
	VADDSD X15, X13, X13
	VMULSD X7, X11, X15
	VADDSD X15, X13, X13
	VMOVSD X13, (SI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  tail1

done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// axpy4: one output row from four input rows.
//
// func axpy4AVX2(c, b0, b1, b2, b3 *float64, v *[4]float64, n int)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ v+40(FP), AX
	MOVQ n+48(FP), CX

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3

loop4:
	CMPQ CX, $4
	JLT tail1
	VMOVUPD (R8), Y8
	VMOVUPD (R9), Y9
	VMOVUPD (R10), Y10
	VMOVUPD (R11), Y11
	VMOVUPD (DI), Y12
	VMULPD Y0, Y8, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y1, Y9, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y2, Y10, Y14
	VADDPD Y14, Y12, Y12
	VMULPD Y3, Y11, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD Y12, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  loop4

tail1:
	TESTQ CX, CX
	JZ done
	VMOVSD (R8), X8
	VMOVSD (R9), X9
	VMOVSD (R10), X10
	VMOVSD (R11), X11
	VMOVSD (DI), X12
	VMULSD X0, X8, X14
	VADDSD X14, X12, X12
	VMULSD X1, X9, X14
	VADDSD X14, X12, X12
	VMULSD X2, X10, X14
	VADDSD X14, X12, X12
	VMULSD X3, X11, X14
	VADDSD X14, X12, X12
	VMOVSD X12, (DI)
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  tail1

done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// axpy1: one output row from one input row (sparse remainder step).
//
// func axpy1AVX2(c, b *float64, v float64, n int)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), R8
	VBROADCASTSD v+16(FP), Y0
	MOVQ n+24(FP), CX

loop4:
	CMPQ CX, $4
	JLT tail1
	VMOVUPD (R8), Y8
	VMOVUPD (DI), Y12
	VMULPD Y0, Y8, Y14
	VADDPD Y14, Y12, Y12
	VMOVUPD Y12, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  loop4

tail1:
	TESTQ CX, CX
	JZ done
	VMOVSD (R8), X8
	VMOVSD (DI), X12
	VMULSD X0, X8, X14
	VADDSD X14, X12, X12
	VMOVSD X12, (DI)
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ CX
	JNZ  tail1

done:
	VZEROUPPER
	RET
