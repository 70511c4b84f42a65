//go:build amd64 && !purego

#include "textflag.h"

// func lbBlock16(x, lo, up *[16]float64) float64
//
// SSE2 LB_Keogh block kernel: for each of the 16 elements accumulate
// max(x-up, lo-x, 0)^2, two float64 lanes per instruction. The four
// logical accumulators of the Go kernel (elements j, j+1, j+2, j+3 of
// each 4-group) live as two xmm registers of two lanes each:
//
//	X4 = {s0, s1}  (elements 0,4,8,12 and 1,5,9,13)
//	X5 = {s2, s3}  (elements 2,6,10,14 and 3,7,11,15)
//
// and the final combine is (s0+s1) + (s2+s3) — the same association as
// the Go version, so finite inputs produce bit-identical sums. The
// max-with-zero keeps inside-envelope elements contributing exactly +0,
// matching the Go kernel's branch that skips them.
//
// One chunk: X3 = (x-up), X2 = (lo-x), X3 = max(X3, X2, 0), acc += X3*X3.
#define CHUNK(off, acc) \
	MOVUPD off(AX), X0; \
	MOVUPD off(CX), X1; \
	MOVUPD off(BX), X2; \
	MOVAPD X0, X3; \
	SUBPD  X1, X3; \
	SUBPD  X0, X2; \
	MAXPD  X2, X3; \
	MAXPD  X6, X3; \
	MULPD  X3, X3; \
	ADDPD  X3, acc

// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelsAre64ByteAligned).
TEXT ·lbBlock16(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ  x+0(FP), AX
	MOVQ  lo+8(FP), BX
	MOVQ  up+16(FP), CX
	XORPS X4, X4            // {s0, s1}
	XORPS X5, X5            // {s2, s3}
	XORPS X6, X6            // constant zero

	CHUNK(0, X4)            // elements 0,1
	CHUNK(16, X5)           // elements 2,3
	CHUNK(32, X4)           // elements 4,5
	CHUNK(48, X5)           // elements 6,7
	CHUNK(64, X4)           // elements 8,9
	CHUNK(80, X5)           // elements 10,11
	CHUNK(96, X4)           // elements 12,13
	CHUNK(112, X5)          // elements 14,15

	// (s0+s1) + (s2+s3), same association as the Go kernel.
	MOVAPD   X4, X0
	UNPCKHPD X0, X0
	ADDSD    X0, X4
	MOVAPD   X5, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X5
	ADDSD    X5, X4
	MOVSD    X4, ret+24(FP)
	RET
