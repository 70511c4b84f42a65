//go:build amd64 && !purego

#include "textflag.h"

// The lag-block kernels, acf16 and acf32, in which vector lanes are
// consecutive lags, shared by up to three or four frames: for every i in
// [0, len(x)), in ascending order, and every frame t < len(sums),
//
//	sums[t][k] += x[i] * y[i+k]    for k = 0 .. lanes-1
//
// Each frame's sums live in four vector accumulators, loaded from sums[t]
// on entry and stored back on exit, so a caller may chain calls;
// sums[t][lanes:] is neither read nor written. One iteration broadcasts
// x[i], loads y[i .. i+lanes) contiguously (unaligned) and multiplies once
// (VMULPD); the rounded product is then added (VADDPD) into every frame's
// accumulator — never a fused multiply-add, which rounds once — so every
// lane of every frame performs exactly the float64 operations of the
// one-lag loop `s += x[i] * y[i+k]`, in the same order, and holds the same
// bits. Frame t's accumulators are register 4t .. 4t+3, and sums[t] is
// 256 bytes past sums[t-1]. A kernel reads x[0 .. len(x)),
// y[0 .. len(x)+lanes-1) and sums[0 .. len(sums)) and nothing else; the
// caller guarantees len(y) >= len(x)+lanes-1.
//
// PCALIGN at offset 0 pads nothing but raises the function's own alignment
// to 64 bytes, so where the linker places it cannot move the loop across a
// fetch-block boundary as the rest of the image grows or shrinks
// (TestKernelIs64ByteAligned).

#define NEXT \
	ADDQ $8, SI; \
	ADDQ $8, DI; \
	DECQ CX

// acf16's: one frame's four ymm accumulators at byte offset off of sums.
#define LOAD16(off, a, b, c, d) \
	VMOVUPD (off)(DX), a; \
	VMOVUPD (off+32)(DX), b; \
	VMOVUPD (off+64)(DX), c; \
	VMOVUPD (off+96)(DX), d

#define STORE16(off, a, b, c, d) \
	VMOVUPD a, (off)(DX); \
	VMOVUPD b, (off+32)(DX); \
	VMOVUPD c, (off+64)(DX); \
	VMOVUPD d, (off+96)(DX)

// Y12 = x[i]; Y13..Y15 = its products with lags 0..11. Three frames'
// twelve accumulators leave no fourth product register, so lags 12..15
// (MUL16B) reuse Y13 once its adds (ADD16A) have read it.
#define MUL16A \
	VBROADCASTSD (SI), Y12; \
	VMULPD 0(DI), Y12, Y13; \
	VMULPD 32(DI), Y12, Y14; \
	VMULPD 64(DI), Y12, Y15

#define ADD16A(a, b, c) \
	VADDPD Y13, a, a; \
	VADDPD Y14, b, b; \
	VADDPD Y15, c, c

#define MUL16B VMULPD 96(DI), Y12, Y13

#define ADD16B(d) VADDPD Y13, d, d

// func acf16(x, y []float64, sums [][acfMaxLanes]float64)
//
// AVX2, 16 lanes, 1 <= len(sums) <= 3.
TEXT ·acf16(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	MOVQ  sums_base+48(FP), DX
	MOVQ  sums_len+56(FP), BX
	TESTQ CX, CX
	JLE   done16
	LOAD16(0, Y0, Y1, Y2, Y3)
	CMPQ  BX, $2
	JLT   loop1x16
	LOAD16(256, Y4, Y5, Y6, Y7)
	JEQ   loop2x16
	LOAD16(512, Y8, Y9, Y10, Y11)

loop3x16:
	MUL16A
	ADD16A(Y0, Y1, Y2)
	ADD16A(Y4, Y5, Y6)
	ADD16A(Y8, Y9, Y10)
	MUL16B
	ADD16B(Y3)
	ADD16B(Y7)
	ADD16B(Y11)
	NEXT
	JNZ   loop3x16
	STORE16(512, Y8, Y9, Y10, Y11)
	JMP   store2x16

loop2x16:
	MUL16A
	ADD16A(Y0, Y1, Y2)
	ADD16A(Y4, Y5, Y6)
	MUL16B
	ADD16B(Y3)
	ADD16B(Y7)
	NEXT
	JNZ   loop2x16

store2x16:
	STORE16(256, Y4, Y5, Y6, Y7)
	JMP   store1x16

loop1x16:
	MUL16A
	ADD16A(Y0, Y1, Y2)
	MUL16B
	ADD16B(Y3)
	NEXT
	JNZ   loop1x16

store1x16:
	STORE16(0, Y0, Y1, Y2, Y3)
	VZEROUPPER

done16:
	RET

// acf32's: one frame's four zmm accumulators at byte offset off of sums.
#define LOAD32(off, a, b, c, d) \
	VMOVUPD (off)(DX), a; \
	VMOVUPD (off+64)(DX), b; \
	VMOVUPD (off+128)(DX), c; \
	VMOVUPD (off+192)(DX), d

#define STORE32(off, a, b, c, d) \
	VMOVUPD a, (off)(DX); \
	VMOVUPD b, (off+64)(DX); \
	VMOVUPD c, (off+128)(DX); \
	VMOVUPD d, (off+192)(DX)

// Z16 = x[i]; Z17..Z20 = its products with lags 0..31.
#define MUL32 \
	VBROADCASTSD (SI), Z16; \
	VMULPD 0(DI), Z16, Z17; \
	VMULPD 64(DI), Z16, Z18; \
	VMULPD 128(DI), Z16, Z19; \
	VMULPD 192(DI), Z16, Z20

#define ADD32(a, b, c, d) \
	VADDPD Z17, a, a; \
	VADDPD Z18, b, b; \
	VADDPD Z19, c, c; \
	VADDPD Z20, d, d

// func acf32(x, y []float64, sums [][acfMaxLanes]float64)
//
// AVX-512, 32 lanes, 1 <= len(sums) <= 4: sixteen accumulators, the
// broadcast and four products take 21 of the 32 zmm registers. Call it
// only when cpuHasAVX512 said yes.
TEXT ·acf32(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	MOVQ  y_base+24(FP), DI
	MOVQ  sums_base+48(FP), DX
	MOVQ  sums_len+56(FP), BX
	TESTQ CX, CX
	JLE   done32
	LOAD32(0, Z0, Z1, Z2, Z3)
	CMPQ  BX, $2
	JLT   loop1x32
	LOAD32(256, Z4, Z5, Z6, Z7)
	JEQ   loop2x32
	LOAD32(512, Z8, Z9, Z10, Z11)
	CMPQ  BX, $3
	JEQ   loop3x32
	LOAD32(768, Z12, Z13, Z14, Z15)

loop4x32:
	MUL32
	ADD32(Z0, Z1, Z2, Z3)
	ADD32(Z4, Z5, Z6, Z7)
	ADD32(Z8, Z9, Z10, Z11)
	ADD32(Z12, Z13, Z14, Z15)
	NEXT
	JNZ   loop4x32
	STORE32(768, Z12, Z13, Z14, Z15)
	JMP   store3x32

loop3x32:
	MUL32
	ADD32(Z0, Z1, Z2, Z3)
	ADD32(Z4, Z5, Z6, Z7)
	ADD32(Z8, Z9, Z10, Z11)
	NEXT
	JNZ   loop3x32

store3x32:
	STORE32(512, Z8, Z9, Z10, Z11)
	JMP   store2x32

loop2x32:
	MUL32
	ADD32(Z0, Z1, Z2, Z3)
	ADD32(Z4, Z5, Z6, Z7)
	NEXT
	JNZ   loop2x32

store2x32:
	STORE32(256, Z4, Z5, Z6, Z7)
	JMP   store1x32

loop1x32:
	MUL32
	ADD32(Z0, Z1, Z2, Z3)
	NEXT
	JNZ   loop1x32

store1x32:
	STORE32(0, Z0, Z1, Z2, Z3)
	VZEROUPPER

done32:
	RET

// The normalisation kernels, acfNorm16 and acfNorm32: normalizeACF in
// vector lanes, for k = 0 .. lanes-1,
//
//	sums[k] = sums[k] / (nL-k) * n / r0
//
// VDIVPD, VMULPD, VDIVPD, each rounded as Go's scalar division,
// multiplication and division are, with no reciprocal. nL-k (lagIndex
// holds k) is an exact integer, as float64(n-(L+k)) is, so a lane holds
// normalizeACF's bits for lag L+k.

// One vector of sums at byte offset off, its denominators in den, and n
// and r0 broadcast in nv and rv.
#define NORM(off, den, s, nv, rv) \
	VMOVUPD (off)(DX), s; \
	VDIVPD  den, s, s; \
	VMULPD  nv, s, s; \
	VDIVPD  rv, s, s; \
	VMOVUPD s, (off)(DX)

// func acfNorm16(sums *[acfMaxLanes]float64, nL, n, r0 float64)
TEXT ·acfNorm16(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ         sums+0(FP), DX
	VBROADCASTSD nL+8(FP), Y4
	VBROADCASTSD n+16(FP), Y5
	VBROADCASTSD r0+24(FP), Y6
	VSUBPD       ·lagIndex+0(SB), Y4, Y0
	VSUBPD       ·lagIndex+32(SB), Y4, Y1
	VSUBPD       ·lagIndex+64(SB), Y4, Y2
	VSUBPD       ·lagIndex+96(SB), Y4, Y3
	NORM(0, Y0, Y7, Y5, Y6)
	NORM(32, Y1, Y8, Y5, Y6)
	NORM(64, Y2, Y9, Y5, Y6)
	NORM(96, Y3, Y10, Y5, Y6)
	VZEROUPPER
	RET

// func acfNorm32(sums *[acfMaxLanes]float64, nL, n, r0 float64)
TEXT ·acfNorm32(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ         sums+0(FP), DX
	VBROADCASTSD nL+8(FP), Z4
	VBROADCASTSD n+16(FP), Z5
	VBROADCASTSD r0+24(FP), Z6
	VSUBPD       ·lagIndex+0(SB), Z4, Z0
	VSUBPD       ·lagIndex+64(SB), Z4, Z1
	VSUBPD       ·lagIndex+128(SB), Z4, Z2
	VSUBPD       ·lagIndex+192(SB), Z4, Z3
	NORM(0, Z0, Z7, Z5, Z6)
	NORM(64, Z1, Z8, Z5, Z6)
	NORM(128, Z2, Z9, Z5, Z6)
	NORM(192, Z3, Z10, Z5, Z6)
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// The low half of XCR0: the register state the operating system saves.
// Call it only when CPUID.1:ECX reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
