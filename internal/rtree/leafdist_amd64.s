//go:build amd64 && !purego

#include "textflag.h"

// func leafBoxDists(dst []float64, pts []uint32, stride int, box []float64)
//
// SSE2 leaf kernel: dst[i] = the squared distance from point i to the query
// box, for len(dst) (even) points lying stride 32-bit words apart in pts — a
// run of leaf entries (stride dim+2: each point's float32 coordinates, then
// its id's two halves). Two points per xmm, one per lane; box holds lo, lo,
// hi, hi for each dimension (Rect.kernelBox), so each bound is one
// unaligned load. For each dimension in order, with c the two points'
// coordinates:
//
//	c  = {a, b}                MOVSS twice, UNPCKLPS, then CVTPS2PD: each
//	                           float32 widened to float64, exactly
//	X1 = {lo, lo} - c          SUBPD
//	X0 = c - {hi, hi}          SUBPD
//	X1 = max(X1, X0)           MAXPD, c-hi as the second source
//	X1 = max(X1, +0)           MAXPD, +0 as the second source
//	sum += X1 * X1             MULPD, then ADDPD; never an FMA
//
// Why this is Float64bits-equal to Rect.boxDist, point by point. From the
// widening on, the arithmetic is boxDist's over float64 coordinates, which
// CVTPS2PD produces exactly as Go's float64(float32) conversion does (a NaN
// quieted the same way). MAXPD
// returns its first source if it is greater, else its second — so the
// second on a NaN and on two zeros.
//
//   - Finite inputs: each step returns what Go's max(lo-c, c-hi, 0)
//     returns. Unequal values give the larger; equal ones are the same value
//     but for zeros of opposite sign, which the +0 second source turns into
//     +0, as builtin max does. The product is rounded, and each lane adds
//     the same terms in the same order as boxDist, into a sum that starts at
//     +0.
//   - Non-finite inputs: boxDist's sum is NaN exactly when some lo-c or
//     c-hi is NaN, and then it answers with SquaredMinDist, which adds
//     (lo-c)² where c < lo, (c-hi)² where c > hi, and nothing elsewhere.
//     The kernel runs only over an ordered box (lo <= hi in every dimension,
//     no NaN bound: kernelBox checks once a query). There, a coordinate whose
//     c-hi is NaN has c NaN or c = hi = ±Inf, so neither c < lo nor c > hi
//     holds: the kernel adds +0, SquaredMinDist nothing, the same since a
//     sum that starts at +0 and adds squares is never -0. A coordinate where
//     only lo-c is NaN has c = lo = ±Inf, so c < lo fails: both add (c-hi)²
//     where c > hi and nothing (+0) elsewhere. Where neither is NaN, c < lo
//     makes lo-c the largest and c > hi makes c-hi the largest, since
//     lo <= hi, so the max term is SquaredMinDist's term.
//
// TestLeafBoundsMatchBoxDist and FuzzLeafBounds check this against boxDist
// and against leafBoxDistsGo, the kernel's twin, on every special value.

// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelIs64ByteAligned).
TEXT ·leafBoxDists(SB), NOSPLIT, $0-80
	PCALIGN $64
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  pts_base+24(FP), SI
	MOVQ  stride+48(FP), DX
	MOVQ  box_base+56(FP), BX
	MOVQ  box_len+64(FP), R8
	SHRQ  $1, CX             // pairs
	JZ    done
	SHRQ  $2, R8             // dim
	SHLQ  $2, DX             // stride in bytes
	LEAQ  (SI)(DX*1), R9     // the pair's second point
	SHLQ  $1, DX             // a pair's stride in bytes
	XORPS X7, X7             // constant +0

pair:
	XORPS X6, X6             // {sum a, sum b}
	MOVQ  BX, R10            // box cursor
	XORQ  R11, R11           // coordinate offset in bytes
	MOVQ  R8, R12            // dimensions left

dim:
	MOVSS    (SI)(R11*1), X0 // {a, 0, 0, 0} as float32
	MOVSS    (R9)(R11*1), X3 // {b, 0, 0, 0}
	UNPCKLPS X3, X0          // {a, b, 0, 0}
	CVTPS2PD X0, X0          // {a, b} as float64
	MOVUPD (R10), X1         // {lo, lo}
	MOVUPD 16(R10), X2       // {hi, hi}
	SUBPD  X0, X1            // lo - c
	SUBPD  X2, X0            // c - hi
	MAXPD  X0, X1
	MAXPD  X7, X1
	MULPD  X1, X1
	ADDPD  X1, X6
	ADDQ   $4, R11
	ADDQ   $32, R10
	DECQ   R12
	JNZ    dim

	MOVUPD X6, (DI)
	ADDQ   $16, DI
	ADDQ   DX, SI
	ADDQ   DX, R9
	DECQ   CX
	JNZ    pair

done:
	RET
