//go:build amd64 && !purego

#include "textflag.h"

// func acf16(x, y []float64, sums *[16]float64)
//
// AVX2 autocorrelation kernel in which vector lanes are consecutive lags:
// for every i in [0, len(x)), in ascending order,
//
//	sums[k] += x[i] * y[i+k]    for k = 0..15
//
// The 16 sums live in four ymm accumulators, loaded from sums on entry and
// stored back on exit, so a caller may chain calls. One iteration
// broadcasts x[i] and loads y[i..i+15] contiguously (unaligned). The
// product is rounded (VMULPD) before it is added (VADDPD) — never a fused
// multiply-add, which rounds once — so every lane performs exactly the
// float64 operations of the one-lag loop `s += x[i] * y[i+k]`, in the same
// order, and holds the same bits.
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
	JLE   done

loop:
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
	JNZ     loop

done:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU reports it (CPUID.7.0:EBX bit 5) and the
// operating system saves the ymm state across context switches: OSXSAVE
// and AVX in CPUID.1:ECX (bits 27, 28), and XCR0 bits 1 and 2 (SSE and AVX
// state) read with XGETBV.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7                 // highest basic leaf
	JLT  no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX        // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX                 // XMM | YMM state enabled by the OS
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX             // AVX2
	JZ   no

	MOVB $1, ret+0(FP)
no:
	RET
