//go:build amd64

#include "textflag.h"

// The 4×8 tile microkernel (see tile.go). Y0–Y7 hold the tile of C —
// row r in Y(2r), Y(2r+1) — for the whole reduction. Each step loads
// one packed row of the factor (two vectors, eight output columns),
// broadcasts one element from each of the four A rows, and updates
// every accumulator once: acc = acc + a·b, running sum as the first
// source like the axpy kernels, lanes holding adjacent output columns.
// The reduction is unrolled four ways; the unroll only amortizes loop
// overhead, the per-element operation order is the reference's.

// One row of one step: off is the byte offset of the unrolled step
// within the A rows. Y8, Y9 hold the packed factor row.
#define ROW_MUL(a, off, acc0, acc1) \
	VBROADCASTSD off(a)(AX*8), Y10; \
	VMULPD       Y10, Y8, Y11;      \
	VADDPD       Y11, acc0, acc0;   \
	VMULPD       Y10, Y9, Y12;      \
	VADDPD       Y12, acc1, acc1

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
