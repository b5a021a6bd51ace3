//go:build !race

#include "textflag.h"

// SSE2 kernels for the radix-4 stages after the first pass and for the
// envelope loop. Every complex128 sits in one XMM register as [re, im], and
// each packed instruction repeats, lane by lane, a scalar operation of the
// Go loop in plan.go, so every output has the bits of that loop as the
// compiler builds it for amd64, where it fuses no multiply-add. Race builds
// run the Go loops instead (kernel_other.go). The butterfly
// (plan.go's butterfly) on a, c, b, d is
//
//	apc, amc = a+c, a−c;  bpd, bmd = b+d, b−d;  t = [−bmd.im, bmd.re]
//	y0, y1, y2, y3 = apc+bpd, amc+t, apc−bpd, amc−t
//
// where, for k > 0, c, b and d are the sub-block values times w2, w1 and w3;
// the k = 0 butterfly takes them as they are, because a product with 1 + 0i
// is not the identity on ±0. Go forms a product x·w as
// [xr·wr − xi·wi, xr·wi + xi·wr]; CMUL forms x·[wr, wr] + swap(x)·[−wi, wi]
// = [xr·wr + xi·(−wi), xi·wr + xr·wi]. Negating a factor negates the product
// exactly, a − b is a + (−b) in IEEE arithmetic and addition commutes, so
// the two agree bit for bit. Nothing here fuses a multiply into an add.

// negLo flips the sign of the low lane: XORPD turns [u, v] into [−u, v].
DATA negLo<>+0(SB)/8, $0x8000000000000000
DATA negLo<>+8(SB)/8, $0
GLOBL negLo<>(SB), RODATA|NOPTR, $16

// CMUL sets X to X·w for the twiddle w = wr + i·wi at off(TW), laid out
// [wr, wr, −wi, wi]. T and U are scratch.
#define CMUL(X, off, TW, T, U) \
	PSHUFD $0x4E, X, T;  \
	MOVUPD off(TW), U;   \
	MULPD  U, X;         \
	MOVUPD off+16(TW), U; \
	MULPD  U, T;         \
	ADDPD  T, X

// BFLY is the butterfly on a = X0, c = X1, b = X2, d = X3 (X14 = negLo). It
// leaves y0 in X6, y1 in X7, y2 in X4 and y3 in X0.
#define BFLY \
	MOVAPD X0, X4;        \
	ADDPD  X1, X4;        \
	SUBPD  X1, X0;        \
	MOVAPD X2, X5;        \
	ADDPD  X3, X5;        \
	SUBPD  X3, X2;        \
	PSHUFD $0x4E, X2, X2; \
	XORPD  X14, X2;       \
	MOVAPD X4, X6;        \
	ADDPD  X5, X6;        \
	SUBPD  X5, X4;        \
	MOVAPD X0, X7;        \
	ADDPD  X2, X7;        \
	SUBPD  X2, X0

// LOAD reads a, c, b, d of the butterfly at R10 from the sub-blocks at
// offsets 0, q (R8), 2q (R11) and 3q (R12).
#define LOAD \
	MOVUPD (R10), X0;       \
	MOVUPD (R10)(R8*1), X1; \
	MOVUPD (R10)(R11*1), X2; \
	MOVUPD (R10)(R12*1), X3

// TWIDDLE multiplies c, b and d by w2, w1 and w3 of the twiddles at AX.
#define TWIDDLE \
	CMUL(X1, 32, AX, X8, X9);   \
	CMUL(X2, 0, AX, X10, X11);  \
	CMUL(X3, 64, AX, X12, X13)

// STORE writes y0, y1, y2 and y3 to offsets 0, q, 2q and 3q of R10.
#define STORE \
	MOVUPD X6, (R10);        \
	MOVUPD X7, (R10)(R8*1);  \
	MOVUPD X4, (R10)(R11*1); \
	MOVUPD X0, (R10)(R12*1)

// func stageKernel(x []complex128, tw []twiddles)
//
// stageGo: every group of four length-q sub-blocks of x, q = len(tw) ≥ 2,
// len(x) a multiple of 4q.
TEXT ·stageKernel(SB), NOSPLIT, $0-48
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   tw_base+24(FP), DI
	MOVQ   tw_len+32(FP), R8
	MOVUPD negLo<>(SB), X14
	SHLQ   $4, CX
	ADDQ   SI, CX           // CX = end of x
	SHLQ   $4, R8           // R8 = q in bytes
	LEAQ   (R8)(R8*1), R11  // R11 = 2q
	LEAQ   (R11)(R8*1), R12 // R12 = 3q

stageGroup:
	CMPQ SI, CX
	JAE  stageDone
	MOVQ SI, R10
	LEAQ (SI)(R8*1), R9     // R9 = end of sub-block 0
	LOAD
	BFLY
	STORE
	MOVQ DI, AX
	ADDQ $16, R10
	CMPQ R10, R9
	JAE  stageNext

stageButterfly:
	ADDQ $96, AX            // AX = &tw[k]
	LOAD
	TWIDDLE
	BFLY
	STORE
	ADDQ $16, R10
	CMPQ R10, R9
	JB   stageButterfly

stageNext:
	LEAQ (SI)(R8*4), SI
	JMP  stageGroup

stageDone:
	RET

// func envelopeKernel(r []float64, z []complex128)
//
// envelopeGo: r[l] = √(re² + im²) of z[l], len(r) = len(z). Four samples a
// pass: each register's two squares are regrouped into [re0², re1²] and
// [im0², im1²], added and rooted two at a time; the last len(z) mod 4
// samples take the scalar instructions.
TEXT ·envelopeKernel(SB), NOSPLIT, $0-48
	MOVQ r_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ z_len+32(FP), CX
	SUBQ $4, CX
	JB   envTail

envQuad:
	MOVUPD   (SI), X0
	MOVUPD   16(SI), X1
	MOVUPD   32(SI), X2
	MOVUPD   48(SI), X3
	MULPD    X0, X0
	MULPD    X1, X1
	MULPD    X2, X2
	MULPD    X3, X3
	MOVAPD   X0, X4
	UNPCKLPD X1, X0         // [re0², re1²]
	UNPCKHPD X1, X4         // [im0², im1²]
	MOVAPD   X2, X5
	UNPCKLPD X3, X2
	UNPCKHPD X3, X5
	ADDPD    X4, X0
	ADDPD    X5, X2
	SQRTPD   X0, X0
	SQRTPD   X2, X2
	MOVUPD   X0, (DI)
	MOVUPD   X2, 16(DI)
	ADDQ     $64, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JAE      envQuad

envTail:
	ADDQ $4, CX
	JZ   envDone

envOne:
	MOVSD  (SI), X0
	MOVSD  8(SI), X1
	MULSD  X0, X0
	MULSD  X1, X1
	ADDSD  X1, X0
	SQRTSD X0, X0
	MOVSD  X0, (DI)
	ADDQ   $16, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    envOne

envDone:
	RET
