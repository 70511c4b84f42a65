//go:build amd64 && !purego

#include "textflag.h"

// func envBytesPass(up, lo []byte, s, m int)
//
// One doubling pass of the byte envelope (envBytesPassGo): for i in [0, m),
// m a multiple of 16, up[i] = max(up[i], up[i+s]) and lo[i] = min(lo[i],
// lo[i+s]), 16 unsigned bytes per PMAXUB / PMINUB. Both loads of a block
// come before its store, so a step s < 16 reads the values the pass has not
// yet written, as the ascending Go loop does.
//
// PCALIGN at offset 0 raises the function's alignment to 64 bytes
// (TestKernelsAre64ByteAligned).
TEXT ·envBytesPass(SB), NOSPLIT, $0-64
	PCALIGN $64
	MOVQ up_base+0(FP), AX
	MOVQ lo_base+24(FP), BX
	MOVQ s+48(FP), DX
	MOVQ m+56(FP), CX
	SHRQ $4, CX
	JZ   done

loop:
	MOVOU  (AX), X0
	MOVOU  (AX)(DX*1), X1
	PMAXUB X1, X0
	MOVOU  X0, (AX)
	MOVOU  (BX), X2
	MOVOU  (BX)(DX*1), X3
	PMINUB X3, X2
	MOVOU  X2, (BX)
	ADDQ   $16, AX
	ADDQ   $16, BX
	DECQ   CX
	JNZ    loop

done:
	RET
