//go:build amd64 && !purego

#include "textflag.h"

// func lbBytes16(b *[16]byte, base float64, lo, up *[16]float64) float64
//
// SSE2 LB_Keogh block kernel over bytes: element j is x_j = b_j + base, and
// the block accumulates max(x-up, lo-x, 0)^2 exactly as lbBlock16 does. The
// 16 bytes are widened to dwords once (X10, X12, X11, X13 hold bytes 0-3,
// 4-7, 8-11, 12-15) and converted two at a time; CVTPL2PD is exact, so the
// one rounding is ADDPD's, the same as float64(b_j)+base in Go. The
// accumulators are lbBlock16's:
//
//	X4 = {s0, s1}  (elements 0,4,8,12 and 1,5,9,13)
//	X5 = {s2, s3}  (elements 2,6,10,14 and 3,7,11,15)
//
// combined as (s0+s1) + (s2+s3). X8 = {base, base}, X6 = 0.
//
// One chunk: X0 = x, then lbBlock16's CHUNK from X3 = (x-up) on.
#define CHUNK(bytes, off, acc) \
	CVTPL2PD bytes, X0; \
	ADDPD    X8, X0; \
	MOVUPD   off(CX), X1; \
	MOVUPD   off(BX), X2; \
	MOVAPD   X0, X3; \
	SUBPD    X1, X3; \
	SUBPD    X0, X2; \
	MAXPD    X2, X3; \
	MAXPD    X6, X3; \
	MULPD    X3, X3; \
	ADDPD    X3, acc

// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelsAre64ByteAligned).
TEXT ·lbBytes16(SB), NOSPLIT, $0-40
	PCALIGN $64
	MOVQ     b+0(FP), AX
	MOVSD    base+8(FP), X8
	UNPCKLPD X8, X8
	MOVQ     lo+16(FP), BX
	MOVQ     up+24(FP), CX
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
	MOVSD    X4, ret+32(FP)
	RET
