//go:build amd64

#include "textflag.h"

// AVX2 lone-column product (see AtxNZ and atxNZGeneric): f = Aᵀx over
// the nonzero entries of x, and Σ x_i² over the same entries.
//
// f stays in registers for the whole column. A strip of up to twelve
// 4-wide vectors of f sits in Y0–Y11 and a 1–3-lane tail in Y12, so
// one pass over x serves 48 + 3 columns of A; a wider A is cut into
// strips of 48, each a pass of its own, the tail riding with the last.
// Each lane holds one element of f, and every nonzero x_i adds
// x_i·A[i][j] to it with one VFMADD231PD, rows ascending: the generic
// loop's math.FMA(x_i, a, acc) from a +0 start, so the bits are its
// bits. The tail is the row's last four elements, loaded whole; its
// lanes that overlap the last full vector repeat that vector's
// operations and store the same bits. A strip without a tail repeats
// its last full vector in Y12 the same way, so no row branches on it.
// A row shorter than four has no full vector to overlap; AtxNZ runs the
// generic loop for it.
//
// Each strip width has its own copy of the scan (SCAN), entered once
// per strip, so a row runs its FMAs with no branch between them.
//
// Zero entries are skipped eight at a time: OR'd together and shifted
// left by one, eight entries are all zero exactly when each is ±0, so
// one VPTEST passes over them (a NaN is nonzero). On a column that is
// 99.5 % zeros, eight per test runs twice as fast as four; sixteen are
// no faster. Σ x_i² is the generic loop's unfused multiply-then-add,
// in X14, recomputed by each strip from a +0 start.
//
// Registers: DI = f strip, R8 = row 0 of the A strip, DX = row stride
// (bytes), R12 = eight rows, R9 = full vectors left after this strip,
// BX = this strip's full vectors (1–12), R10 = byte offset of the vector Y12
// holds, SI = x cursor, CX = entries left, R13 = row cursor, R11 =
// entries left in the current run, Y13 = the broadcast x_i, Y15 =
// scratch.

// ROWn adds x_i·(row i of the strip) to the n full vectors and to Y12.
#define FMA_TO(off, acc) VFMADD231PD off(R13), Y13, acc
#define ROW1 VFMADD231PD (R13)(R10*1), Y13, Y12; FMA_TO(0, Y0)
#define ROW2 ROW1; FMA_TO(32, Y1)
#define ROW3 ROW2; FMA_TO(64, Y2)
#define ROW4 ROW3; FMA_TO(96, Y3)
#define ROW5 ROW4; FMA_TO(128, Y4)
#define ROW6 ROW5; FMA_TO(160, Y5)
#define ROW7 ROW6; FMA_TO(192, Y6)
#define ROW8 ROW7; FMA_TO(224, Y7)
#define ROW9 ROW8; FMA_TO(256, Y8)
#define ROW10 ROW9; FMA_TO(288, Y9)
#define ROW11 ROW10; FMA_TO(320, Y10)
#define ROW12 ROW11; FMA_TO(352, Y11)

// SCAN walks x once, adding each nonzero entry's row through row; the
// other arguments are its labels.
#define SCAN(row, group, run, rest, entry, next) \
	MOVQ         x+16(FP), SI;       \
	MOVQ         m+32(FP), CX;       \
	MOVQ         R8, R13;            \
group:                                   \
	CMPQ         CX, $8;             \
	JLT          rest;               \
	VMOVUPD      (SI), Y15;          \
	VORPD        32(SI), Y15, Y15;   \
	VPSLLQ       $1, Y15, Y15;       \
	VPTEST       Y15, Y15;           \
	JNZ          run;                \
	ADDQ         $64, SI;            \
	ADDQ         R12, R13;           \
	SUBQ         $8, CX;             \
	JMP          group;              \
run:                                     \
	MOVQ         $8, R11;            \
	SUBQ         $8, CX;             \
	JMP          entry;              \
rest:                                    \
	MOVQ         CX, R11;            \
	XORQ         CX, CX;             \
	TESTQ        R11, R11;           \
	JZ           store;              \
entry:                                   \
	MOVQ         (SI), AX;           \
	ADDQ         AX, AX;             \
	JZ           next;               \
	VBROADCASTSD (SI), Y13;          \
	VMULSD       X13, X13, X15;      \
	VADDSD       X15, X14, X14;      \
	row;                             \
next:                                    \
	ADDQ         $8, SI;             \
	ADDQ         DX, R13;            \
	DECQ         R11;                \
	JNZ          entry;              \
	JMP          group

// STORE_TO stores accumulator Yv when the strip has more than v full
// vectors.
#define STORE_TO(v, off, acc) \
	CMPQ    BX, $v;        \
	JLE     storetail;     \
	VMOVUPD acc, off(DI)

// func atxNZAVX2(f, a, x *float64, k, m int) float64
TEXT ·atxNZAVX2(SB), NOSPLIT, $0-48
	MOVQ f+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ k+24(FP), DX
	MOVQ DX, R9
	SHRQ $2, R9
	SHLQ $3, DX
	MOVQ DX, R12
	SHLQ $3, R12

strip:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD X14, X14, X14
	MOVQ   $12, BX
	MOVQ   $352, R10
	CMPQ   R9, $12
	JLE    last
	SUBQ   $12, R9
	JMP    dispatch

last:
	// The last strip: its full vectors, and the tail if k%4 > 0.
	MOVQ  R9, BX
	XORQ  R9, R9
	MOVQ  BX, R10
	SHLQ  $5, R10
	SUBQ  $32, R10
	TESTQ $24, DX
	JZ    dispatch
	MOVQ  DX, R10
	SUBQ  $32, R10
	ADDQ  f+0(FP), R10
	SUBQ  DI, R10

dispatch:
	CMPQ BX, $1
	JEQ  scan1
	CMPQ BX, $2
	JEQ  scan2
	CMPQ BX, $3
	JEQ  scan3
	CMPQ BX, $4
	JEQ  scan4
	CMPQ BX, $5
	JEQ  scan5
	CMPQ BX, $6
	JEQ  scan6
	CMPQ BX, $7
	JEQ  scan7
	CMPQ BX, $8
	JEQ  scan8
	CMPQ BX, $9
	JEQ  scan9
	CMPQ BX, $10
	JEQ  scan10
	CMPQ BX, $11
	JEQ  scan11
	SCAN(ROW12, g12, f12, r12, e12, n12)

scan1:
	SCAN(ROW1, g1, f1, r1, e1, n1)

scan2:
	SCAN(ROW2, g2, f2, r2, e2, n2)

scan3:
	SCAN(ROW3, g3, f3, r3, e3, n3)

scan4:
	SCAN(ROW4, g4, f4, r4, e4, n4)

scan5:
	SCAN(ROW5, g5, f5, r5, e5, n5)

scan6:
	SCAN(ROW6, g6, f6, r6, e6, n6)

scan7:
	SCAN(ROW7, g7, f7, r7, e7, n7)

scan8:
	SCAN(ROW8, g8, f8, r8, e8, n8)

scan9:
	SCAN(ROW9, g9, f9, r9, e9, n9)

scan10:
	SCAN(ROW10, g10, f10, r10, e10, n10)

scan11:
	SCAN(ROW11, g11, f11, r11, e11, n11)

store:
	VMOVUPD Y12, (DI)(R10*1)
	VMOVUPD Y0, (DI)
	STORE_TO(1, 32, Y1)
	STORE_TO(2, 64, Y2)
	STORE_TO(3, 96, Y3)
	STORE_TO(4, 128, Y4)
	STORE_TO(5, 160, Y5)
	STORE_TO(6, 192, Y6)
	STORE_TO(7, 224, Y7)
	STORE_TO(8, 256, Y8)
	STORE_TO(9, 288, Y9)
	STORE_TO(10, 320, Y10)
	STORE_TO(11, 352, Y11)

storetail:
	ADDQ   $384, DI
	ADDQ   $384, R8
	TESTQ  R9, R9
	JNZ    strip
	VMOVSD X14, ret+40(FP)
	VZEROUPPER
	RET
