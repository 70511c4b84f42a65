//go:build amd64 && !purego

#include "textflag.h"

// func acf16(x, y []float64, sums *[acfMaxLanes]float64)
//
// AVX2 autocorrelation kernel in which vector lanes are consecutive lags:
// for every i in [0, len(x)), in ascending order,
//
//	sums[k] += x[i] * y[i+k]    for k = 0..15
//
// The 16 sums live in four ymm accumulators, loaded from sums on entry and
// stored back on exit, so a caller may chain calls; sums[16:] is neither
// read nor written. One iteration broadcasts x[i] and loads y[i..i+15]
// contiguously (unaligned). The product is rounded (VMULPD) before it is
// added (VADDPD) — never a fused multiply-add, which rounds once — so every
// lane performs exactly the float64 operations of the one-lag loop
// `s += x[i] * y[i+k]`, in the same order, and holds the same bits.
//
// Reads x[0 .. len(x)) and y[0 .. len(x)+15) and nothing else; the caller
// guarantees len(y) >= len(x)+15.
//
// PCALIGN at offset 0 pads nothing but raises the function's own alignment
// to 64 bytes, so where the linker places it cannot move the loop across a
// fetch-block boundary as the rest of the image grows or shrinks
// (TestKernelIs64ByteAligned).
TEXT ·acf16(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ sums+48(FP), DX

	VMOVUPD 0(DX), Y0           // lags 0..3
	VMOVUPD 32(DX), Y1          // lags 4..7
	VMOVUPD 64(DX), Y2          // lags 8..11
	VMOVUPD 96(DX), Y3          // lags 12..15

	TESTQ CX, CX
	JLE   done16

loop16:
	VBROADCASTSD (SI), Y4
	VMULPD  0(DI), Y4, Y5
	VMULPD  32(DI), Y4, Y6
	VMULPD  64(DI), Y4, Y7
	VMULPD  96(DI), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     loop16

done16:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func acf32(x, y []float64, sums *[acfMaxLanes]float64)
//
// acf16 at 32 lags a pass, in four zmm accumulators of eight lanes each:
//
//	sums[k] += x[i] * y[i+k]    for k = 0..31
//
// for every i in [0, len(x)) in ascending order, VMULPD then VADDPD, never
// an FMA. Reads x[0 .. len(x)) and y[0 .. len(x)+31) and nothing else; the
// caller guarantees len(y) >= len(x)+31. Call it only when cpuHasAVX512
// said yes.
TEXT ·acf32(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ sums+48(FP), DX

	VMOVUPD 0(DX), Z0           // lags 0..7
	VMOVUPD 64(DX), Z1          // lags 8..15
	VMOVUPD 128(DX), Z2         // lags 16..23
	VMOVUPD 192(DX), Z3         // lags 24..31

	TESTQ CX, CX
	JLE   done32

loop32:
	VBROADCASTSD (SI), Z4
	VMULPD  0(DI), Z4, Z5
	VMULPD  64(DI), Z4, Z6
	VMULPD  128(DI), Z4, Z7
	VMULPD  192(DI), Z4, Z8
	VADDPD  Z5, Z0, Z0
	VADDPD  Z6, Z1, Z1
	VADDPD  Z7, Z2, Z2
	VADDPD  Z8, Z3, Z3
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     loop32

done32:
	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
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
