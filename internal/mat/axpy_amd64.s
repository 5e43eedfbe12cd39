//go:build amd64

#include "textflag.h"

// AVX2 axpy primitives (see dispatch_amd64.go). The vector lanes hold
// adjacent output elements j — never partial sums of one element — so
// the per-element accumulation order matches the generic loops exactly
// and the results are bitwise identical to them.
//
// Every term is one fused multiply-add, dst = v·b + dst rounded once
// (VFMADD231PD in the 4-wide body, VFMADD231SD in the scalar tail),
// taken in the generic loops' left-to-right order: their math.FMA(v, b,
// dst) is the same operation on one element.

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
	VFMADD231PD Y0, Y8, Y12
	VFMADD231PD Y1, Y9, Y12
	VFMADD231PD Y2, Y10, Y12
	VFMADD231PD Y3, Y11, Y12
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
	VFMADD231SD X0, X8, X12
	VFMADD231SD X1, X9, X12
	VFMADD231SD X2, X10, X12
	VFMADD231SD X3, X11, X12
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
	VFMADD231PD Y0, Y8, Y12
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
	VFMADD231SD X0, X8, X12
	VMOVSD X12, (DI)
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ CX
	JNZ  tail1

done:
	VZEROUPPER
	RET
