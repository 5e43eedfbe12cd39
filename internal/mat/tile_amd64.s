//go:build amd64

#include "textflag.h"

// The 4×8 tile microkernel (see tile.go). Y0–Y7 hold the tile of C —
// row r in Y(2r), Y(2r+1) — for the whole reduction. Each step loads
// one packed row of the factor (two vectors, eight output columns),
// broadcasts one element from each of the four A rows, and updates
// every accumulator once with one fused multiply-add, acc = a·b + acc
// rounded once (math.FMA in the portable tileRow), lanes holding
// adjacent output columns. The reduction is unrolled four ways; the
// unroll only amortizes loop overhead, the per-element operation order
// is the reference's.

// One row of one step: off is the byte offset of the unrolled step
// within the A rows. Y8, Y9 hold the packed factor row.
#define ROW_MUL(a, off, acc0, acc1) \
	VBROADCASTSD off(a)(AX*8), Y10; \
	VFMADD231PD  Y10, Y8, acc0;     \
	VFMADD231PD  Y10, Y9, acc1

#define STEP_MUL(off8, offb0, offb1) \
	VMOVUPD offb0(SI), Y8;       \
	VMOVUPD offb1(SI), Y9;       \
	ROW_MUL(R8, off8, Y0, Y1);   \
	ROW_MUL(R9, off8, Y2, Y3);   \
	ROW_MUL(R10, off8, Y4, Y5);  \
	ROW_MUL(R11, off8, Y6, Y7)

// Arguments: DI = c, DX = ldc (bytes after the shift), R8–R11 = the
// four A rows, SI = packed panel, CX = n, AX = reduction index.
#define TILE_LOAD_ARGS \
	MOVQ   c+0(FP), DI;    \
	MOVQ   ldc+8(FP), DX;  \
	MOVQ   a0+16(FP), R8;  \
	MOVQ   a1+24(FP), R9;  \
	MOVQ   a2+32(FP), R10; \
	MOVQ   a3+40(FP), R11; \
	MOVQ   b+48(FP), SI;   \
	MOVQ   n+56(FP), CX;   \
	SHLQ   $3, DX;         \
	XORQ   AX, AX;         \
	VXORPD Y0, Y0, Y0;     \
	VXORPD Y1, Y1, Y1;     \
	VXORPD Y2, Y2, Y2;     \
	VXORPD Y3, Y3, Y3;     \
	VXORPD Y4, Y4, Y4;     \
	VXORPD Y5, Y5, Y5;     \
	VXORPD Y6, Y6, Y6;     \
	VXORPD Y7, Y7, Y7

#define TILE_STORE \
	VMOVUPD Y0, (DI);   \
	VMOVUPD Y1, 32(DI); \
	ADDQ    DX, DI;     \
	VMOVUPD Y2, (DI);   \
	VMOVUPD Y3, 32(DI); \
	ADDQ    DX, DI;     \
	VMOVUPD Y4, (DI);   \
	VMOVUPD Y5, 32(DI); \
	ADDQ    DX, DI;     \
	VMOVUPD Y6, (DI);   \
	VMOVUPD Y7, 32(DI); \
	VZEROUPPER

// func tile4x8AVX2(c *float64, ldc int, a0, a1, a2, a3, b *float64, n int)
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-64
	TILE_LOAD_ARGS
	SUBQ $3, CX // CX = n-3: four full steps remain while AX < CX

loop4:
	CMPQ AX, CX
	JGE  tail
	STEP_MUL(0, 0, 32)
	STEP_MUL(8, 64, 96)
	STEP_MUL(16, 128, 160)
	STEP_MUL(24, 192, 224)
	ADDQ $4, AX
	ADDQ $256, SI
	JMP  loop4

tail:
	ADDQ $3, CX

tail1:
	CMPQ AX, CX
	JGE  done
	STEP_MUL(0, 0, 32)
	INCQ AX
	ADDQ $64, SI
	JMP  tail1

done:
	TILE_STORE
	RET

// ---------------------------------------------------------------------
// The strided 4×8 tile (see accTileGeneric): C[r][j] += a_r[s·as]·b[s·ldb+j]
// for r < 4, j < w ≤ 8 and n ≥ 1 steps s, each one fused multiply-add
// from C's value. Y0–Y7 hold the tile — row r in Y(2r), Y(2r+1) — for
// the n steps; AX is the byte offset of step s in the A rows. A tile
// of w = 8 runs plain loads and stores; a narrower one masks every
// access to C and B with VMASKMOVPD (Y12, Y13 select lanes j < w),
// which neither reads nor writes a masked lane.

// One step over the four rows; Y8, Y9 hold the step's row of B.
#define ACC_ROWS \
	VBROADCASTSD (R8)(AX*1), Y10;  \
	VFMADD231PD  Y10, Y8, Y0;      \
	VFMADD231PD  Y10, Y9, Y1;      \
	VBROADCASTSD (R9)(AX*1), Y10;  \
	VFMADD231PD  Y10, Y8, Y2;      \
	VFMADD231PD  Y10, Y9, Y3;      \
	VBROADCASTSD (R10)(AX*1), Y10; \
	VFMADD231PD  Y10, Y8, Y4;      \
	VFMADD231PD  Y10, Y9, Y5;      \
	VBROADCASTSD (R11)(AX*1), Y10; \
	VFMADD231PD  Y10, Y8, Y6;      \
	VFMADD231PD  Y10, Y9, Y7

// lanes j < w of two vectors are &accMask<>[8−w] and the 4 after it.
DATA accMask<>+0(SB)/8, $-1
DATA accMask<>+8(SB)/8, $-1
DATA accMask<>+16(SB)/8, $-1
DATA accMask<>+24(SB)/8, $-1
DATA accMask<>+32(SB)/8, $-1
DATA accMask<>+40(SB)/8, $-1
DATA accMask<>+48(SB)/8, $-1
DATA accMask<>+56(SB)/8, $-1
DATA accMask<>+64(SB)/8, $0
DATA accMask<>+72(SB)/8, $0
DATA accMask<>+80(SB)/8, $0
DATA accMask<>+88(SB)/8, $0
DATA accMask<>+96(SB)/8, $0
DATA accMask<>+104(SB)/8, $0
DATA accMask<>+112(SB)/8, $0
DATA accMask<>+120(SB)/8, $0
GLOBL accMask<>(SB), RODATA|NOPTR, $128

// func accTile4x8AVX2(c0, c1, c2, c3, a0, a1, a2, a3 *float64, as int, b *float64, ldb, n, w int)
TEXT ·accTile4x8AVX2(SB), NOSPLIT, $0-104
	MOVQ a0+32(FP), R8
	MOVQ a1+40(FP), R9
	MOVQ a2+48(FP), R10
	MOVQ a3+56(FP), R11
	MOVQ as+64(FP), DX
	MOVQ b+72(FP), SI
	MOVQ ldb+80(FP), BX
	MOVQ n+88(FP), CX
	MOVQ w+96(FP), AX
	SHLQ $3, DX
	SHLQ $3, BX
	CMPQ AX, $8
	JLT  masked

	MOVQ    c0+0(FP), DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    c1+8(FP), DI
	VMOVUPD (DI), Y2
	VMOVUPD 32(DI), Y3
	MOVQ    c2+16(FP), DI
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	MOVQ    c3+24(FP), DI
	VMOVUPD (DI), Y6
	VMOVUPD 32(DI), Y7
	XORQ    AX, AX

full:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	ACC_ROWS
	ADDQ    DX, AX
	ADDQ    BX, SI
	DECQ    CX
	JNZ     full

	MOVQ    c0+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	MOVQ    c1+8(FP), DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	MOVQ    c2+16(FP), DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	MOVQ    c3+24(FP), DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

masked:
	LEAQ       accMask<>+64(SB), R12
	SHLQ       $3, AX
	SUBQ       AX, R12
	VMOVUPD    (R12), Y12
	VMOVUPD    32(R12), Y13
	MOVQ       c0+0(FP), DI
	VMASKMOVPD (DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	MOVQ       c1+8(FP), DI
	VMASKMOVPD (DI), Y12, Y2
	VMASKMOVPD 32(DI), Y13, Y3
	MOVQ       c2+16(FP), DI
	VMASKMOVPD (DI), Y12, Y4
	VMASKMOVPD 32(DI), Y13, Y5
	MOVQ       c3+24(FP), DI
	VMASKMOVPD (DI), Y12, Y6
	VMASKMOVPD 32(DI), Y13, Y7
	XORQ       AX, AX

maskedLoop:
	VMASKMOVPD (SI), Y12, Y8
	VMASKMOVPD 32(SI), Y13, Y9
	ACC_ROWS
	ADDQ       DX, AX
	ADDQ       BX, SI
	DECQ       CX
	JNZ        maskedLoop

	MOVQ       c0+0(FP), DI
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	MOVQ       c1+8(FP), DI
	VMASKMOVPD Y2, Y12, (DI)
	VMASKMOVPD Y3, Y13, 32(DI)
	MOVQ       c2+16(FP), DI
	VMASKMOVPD Y4, Y12, (DI)
	VMASKMOVPD Y5, Y13, 32(DI)
	MOVQ       c3+24(FP), DI
	VMASKMOVPD Y6, Y12, (DI)
	VMASKMOVPD Y7, Y13, 32(DI)
	VZEROUPPER
	RET
