//go:build amd64

#include "textflag.h"

// The avx512 bodies of the two tiles (see tile.go and accTileGeneric).
// They use Z0–Z15 and opmasks only, and the same fused multiply-add per
// term as the AVX2 bodies, acc = a·b + acc rounded once, lanes holding
// adjacent output columns; a ZMM register covers one packed panel row.

// ---------------------------------------------------------------------
// The packed 4×16 tile over two adjacent panels: Z(2r) holds row r's
// columns from panel b0, Z(2r+1) those from b1, for the whole
// reduction. Unrolled four ways like the 4×8 tile.

// One step: offa is the byte offset of the unrolled step within the A
// rows, offb within both panels.
#define STEP_PAIR(offa, offb) \
	VMOVUPD      offb(SI), Z8;          \
	VMOVUPD      offb(R12), Z9;         \
	VBROADCASTSD offa(R8)(AX*8), Z10;   \
	VFMADD231PD  Z10, Z8, Z0;           \
	VFMADD231PD  Z10, Z9, Z1;           \
	VBROADCASTSD offa(R9)(AX*8), Z10;   \
	VFMADD231PD  Z10, Z8, Z2;           \
	VFMADD231PD  Z10, Z9, Z3;           \
	VBROADCASTSD offa(R10)(AX*8), Z10;  \
	VFMADD231PD  Z10, Z8, Z4;           \
	VFMADD231PD  Z10, Z9, Z5;           \
	VBROADCASTSD offa(R11)(AX*8), Z10;  \
	VFMADD231PD  Z10, Z8, Z6;           \
	VFMADD231PD  Z10, Z9, Z7

// func tile4x16AVX512(c *float64, ldc int, a0, a1, a2, a3, b0, b1 *float64, n int)
TEXT ·tile4x16AVX512(SB), NOSPLIT, $0-72
	MOVQ   c+0(FP), DI
	MOVQ   ldc+8(FP), DX
	MOVQ   a0+16(FP), R8
	MOVQ   a1+24(FP), R9
	MOVQ   a2+32(FP), R10
	MOVQ   a3+40(FP), R11
	MOVQ   b0+48(FP), SI
	MOVQ   b1+56(FP), R12
	MOVQ   n+64(FP), CX
	SHLQ   $3, DX
	XORQ   AX, AX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	SUBQ   $3, CX // four full steps remain while AX < CX

pairLoop4:
	CMPQ AX, CX
	JGE  pairTail
	STEP_PAIR(0, 0)
	STEP_PAIR(8, 64)
	STEP_PAIR(16, 128)
	STEP_PAIR(24, 192)
	ADDQ $4, AX
	ADDQ $256, SI
	ADDQ $256, R12
	JMP  pairLoop4

pairTail:
	ADDQ $3, CX

pairTail1:
	CMPQ AX, CX
	JGE  pairDone
	STEP_PAIR(0, 0)
	INCQ AX
	ADDQ $64, SI
	ADDQ $64, R12
	JMP  pairTail1

pairDone:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    DX, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// The strided 4×16 tile: C[r][j] += a_r[s·as]·b[s·ldb+j] for r < 4,
// j < w ≤ 16 and n ≥ 1 steps, from C's value. K1 selects lanes j < w
// of the first eight columns, K2 of the next eight; every access to C
// and B is masked by them (a masked lane is neither read nor written),
// and a tile of w ≤ 8 runs one vector a row. AX is the byte offset of
// step s in the A rows.

// func accTile4x16AVX512(c0, c1, c2, c3, a0, a1, a2, a3 *float64, as int, b *float64, ldb, n, w int)
TEXT ·accTile4x16AVX512(SB), NOSPLIT, $0-104
	MOVQ  a0+32(FP), R8
	MOVQ  a1+40(FP), R9
	MOVQ  a2+48(FP), R10
	MOVQ  a3+56(FP), R11
	MOVQ  as+64(FP), DX
	MOVQ  b+72(FP), SI
	MOVQ  ldb+80(FP), BX
	SHLQ  $3, DX
	SHLQ  $3, BX
	MOVQ  w+96(FP), CX
	MOVL  $1, R12
	SHLL  CX, R12
	DECL  R12
	KMOVW R12, K1
	SHRL  $8, R12
	KMOVW R12, K2
	XORQ  AX, AX
	CMPQ  CX, $8
	MOVQ  n+88(FP), CX
	JLE   half

	MOVQ      c0+0(FP), DI
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	MOVQ      c1+8(FP), DI
	VMOVUPD.Z (DI), K1, Z2
	VMOVUPD.Z 64(DI), K2, Z3
	MOVQ      c2+16(FP), DI
	VMOVUPD.Z (DI), K1, Z4
	VMOVUPD.Z 64(DI), K2, Z5
	MOVQ      c3+24(FP), DI
	VMOVUPD.Z (DI), K1, Z6
	VMOVUPD.Z 64(DI), K2, Z7

wide:
	VMOVUPD.Z    (SI), K1, Z8
	VMOVUPD.Z    64(SI), K2, Z9
	VBROADCASTSD (R8)(AX*1), Z10
	VFMADD231PD  Z10, Z8, Z0
	VFMADD231PD  Z10, Z9, Z1
	VBROADCASTSD (R9)(AX*1), Z10
	VFMADD231PD  Z10, Z8, Z2
	VFMADD231PD  Z10, Z9, Z3
	VBROADCASTSD (R10)(AX*1), Z10
	VFMADD231PD  Z10, Z8, Z4
	VFMADD231PD  Z10, Z9, Z5
	VBROADCASTSD (R11)(AX*1), Z10
	VFMADD231PD  Z10, Z8, Z6
	VFMADD231PD  Z10, Z9, Z7
	ADDQ         DX, AX
	ADDQ         BX, SI
	DECQ         CX
	JNZ          wide

	MOVQ    c0+0(FP), DI
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	MOVQ    c1+8(FP), DI
	VMOVUPD Z2, K1, (DI)
	VMOVUPD Z3, K2, 64(DI)
	MOVQ    c2+16(FP), DI
	VMOVUPD Z4, K1, (DI)
	VMOVUPD Z5, K2, 64(DI)
	MOVQ    c3+24(FP), DI
	VMOVUPD Z6, K1, (DI)
	VMOVUPD Z7, K2, 64(DI)
	VZEROUPPER
	RET

half:
	MOVQ      c0+0(FP), DI
	VMOVUPD.Z (DI), K1, Z0
	MOVQ      c1+8(FP), DI
	VMOVUPD.Z (DI), K1, Z2
	MOVQ      c2+16(FP), DI
	VMOVUPD.Z (DI), K1, Z4
	MOVQ      c3+24(FP), DI
	VMOVUPD.Z (DI), K1, Z6

halfLoop:
	VMOVUPD.Z        (SI), K1, Z8
	VFMADD231PD.BCST (R8)(AX*1), Z8, Z0
	VFMADD231PD.BCST (R9)(AX*1), Z8, Z2
	VFMADD231PD.BCST (R10)(AX*1), Z8, Z4
	VFMADD231PD.BCST (R11)(AX*1), Z8, Z6
	ADDQ             DX, AX
	ADDQ             BX, SI
	DECQ             CX
	JNZ              halfLoop

	MOVQ    c0+0(FP), DI
	VMOVUPD Z0, K1, (DI)
	MOVQ    c1+8(FP), DI
	VMOVUPD Z2, K1, (DI)
	MOVQ    c2+16(FP), DI
	VMOVUPD Z4, K1, (DI)
	MOVQ    c3+24(FP), DI
	VMOVUPD Z6, K1, (DI)
	VZEROUPPER
	RET
