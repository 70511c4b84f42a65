//go:build amd64 && !purego

#include "textflag.h"

// func shadowBlock16(q *[16]byte, base, step float64, lo, up *[16]float64) float64
//
// SSE2 shadow block kernel: for each of the 16 codes, a = base + q*step and
// accumulate max(a-up, lo-(a+step), 0)^2, two float64 lanes per
// instruction. The 16 code bytes are widened to dwords once (X10, X12, X11,
// X13 hold codes 0-3, 4-7, 8-11, 12-15) and converted two at a time. The
// accumulators are lbBlock16's:
//
//	X4 = {s0, s1}  (elements 0,4,8,12 and 1,5,9,13)
//	X5 = {s2, s3}  (elements 2,6,10,14 and 3,7,11,15)
//
// combined as (s0+s1) + (s2+s3), so finite inputs give shadowBlock16Go's
// bits. X8 = {base, base}, X9 = {step, step}, X6 = 0.
//
// One chunk: X0 = a, X1 = a+step, X0 = max(a-up, lo-X1, 0), acc += X0*X0.
#define CHUNK(codes, off, acc) \
	CVTPL2PD codes, X0; \
	MULPD    X9, X0; \
	ADDPD    X8, X0; \
	MOVAPD   X0, X1; \
	ADDPD    X9, X1; \
	MOVUPD   off(CX), X2; \
	SUBPD    X2, X0; \
	MOVUPD   off(BX), X3; \
	SUBPD    X1, X3; \
	MAXPD    X3, X0; \
	MAXPD    X6, X0; \
	MULPD    X0, X0; \
	ADDPD    X0, acc

// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelsAre64ByteAligned).
TEXT ·shadowBlock16(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ     q+0(FP), AX
	MOVSD    base+8(FP), X8
	UNPCKLPD X8, X8
	MOVSD    step+16(FP), X9
	UNPCKLPD X9, X9
	MOVQ     lo+24(FP), BX
	MOVQ     up+32(FP), CX
	XORPS    X4, X4         // {s0, s1}
	XORPS    X5, X5         // {s2, s3}
	XORPS    X6, X6         // constant zero

	// Bytes to words to dwords, zero-extended.
	MOVOU     (AX), X10
	MOVO      X10, X11
	PUNPCKLBW X6, X10       // words 0-7
	PUNPCKHBW X6, X11       // words 8-15
	MOVO      X10, X12
	PUNPCKLWL X6, X10       // dwords 0-3
	PUNPCKHWL X6, X12       // dwords 4-7
	MOVO      X11, X13
	PUNPCKLWL X6, X11       // dwords 8-11
	PUNPCKHWL X6, X13       // dwords 12-15

	CHUNK(X10, 0, X4)       // elements 0,1
	PSHUFD $0xee, X10, X10  // dwords 2,3 down
	CHUNK(X10, 16, X5)      // elements 2,3
	CHUNK(X12, 32, X4)      // elements 4,5
	PSHUFD $0xee, X12, X12
	CHUNK(X12, 48, X5)      // elements 6,7
	CHUNK(X11, 64, X4)      // elements 8,9
	PSHUFD $0xee, X11, X11
	CHUNK(X11, 80, X5)      // elements 10,11
	CHUNK(X13, 96, X4)      // elements 12,13
	PSHUFD $0xee, X13, X13
	CHUNK(X13, 112, X5)     // elements 14,15

	// (s0+s1) + (s2+s3), same association as the Go kernel.
	MOVAPD   X4, X0
	UNPCKHPD X0, X0
	ADDSD    X0, X4
	MOVAPD   X5, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X5
	ADDSD    X5, X4
	MOVSD    X4, ret+40(FP)
	RET
