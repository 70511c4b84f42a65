//go:build amd64 && !purego

#include "textflag.h"

// func projBlock16(dst, x, lo, up *[16]float64)
//
// SSE2 envelope-projection kernel: dst[i] = clamp(x[i], lo[i], up[i]) for
// each of the 16 elements, two float64 lanes per instruction. The clamp is
// branchless — min with the upper envelope, then max with the lower — so
// there is no misprediction cost regardless of how the candidate wanders
// around the envelope. MINPD/MAXPD return the source operand on exact ties,
// which differs from the Go kernel's branchy clamp only in the sign of
// zero; callers square the projection, so the distinction never surfaces.
//
// One chunk: X0 = x, X0 = min(X0, up), X0 = max(X0, lo), store.
#define CHUNK(off) \
	MOVUPD off(AX), X0; \
	MOVUPD off(CX), X1; \
	MINPD  X1, X0; \
	MOVUPD off(BX), X1; \
	MAXPD  X1, X0; \
	MOVUPD X0, off(DI)

// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelsAre64ByteAligned).
TEXT ·projBlock16(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ lo+16(FP), BX
	MOVQ up+24(FP), CX

	CHUNK(0)   // elements 0,1
	CHUNK(16)  // elements 2,3
	CHUNK(32)  // elements 4,5
	CHUNK(48)  // elements 6,7
	CHUNK(64)  // elements 8,9
	CHUNK(80)  // elements 10,11
	CHUNK(96)  // elements 12,13
	CHUNK(112) // elements 14,15

	RET
