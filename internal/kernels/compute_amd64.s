#include "textflag.h"

// func compute(init *[64]float64, iterations int64) float64
//
// The 64 lanes live in the frame, which is not zeroed: the first pass
// reads init and writes every lane. Later passes run the scalar
// multiply-add loop in place, one MULSD and one ADDSD per lane, with
// its head 64-byte aligned and both back edges jumping to it, so no
// padding executes inside the loop. The reduction reads init itself
// when no pass runs.
TEXT ·compute(SB), NOSPLIT, $512-24
	MOVQ init+0(FP), SI
	MOVQ iterations+8(FP), AX
	TESTQ AX, AX
	JLE  reduce

	// First pass, init → frame, two lanes per instruction: packed and
	// scalar SSE2 round each lane alike.
	MOVQ SP, DI
	XORL CX, CX
first:
	MOVUPD 0(SI)(CX*8), X0
	MOVUPD 16(SI)(CX*8), X2
	MOVUPD 32(SI)(CX*8), X4
	MOVUPD 48(SI)(CX*8), X6
	MOVAPD X0, X1
	MOVAPD X2, X3
	MOVAPD X4, X5
	MOVAPD X6, X7
	MULPD  X0, X0
	MULPD  X2, X2
	MULPD  X4, X4
	MULPD  X6, X6
	ADDPD  X1, X0
	ADDPD  X3, X2
	ADDPD  X5, X4
	ADDPD  X7, X6
	MOVUPD X0, 0(DI)(CX*8)
	MOVUPD X2, 16(DI)(CX*8)
	MOVUPD X4, 32(DI)(CX*8)
	MOVUPD X6, 48(DI)(CX*8)
	ADDQ   $8, CX
	CMPQ   CX, $64
	JLT    first
	MOVQ   DI, SI
	DECQ   AX
	JZ     reduce

	XORL CX, CX
	PCALIGN $64
lane:
	MOVSD  (DI)(CX*8), X0
	MOVAPS X0, X1
	MULSD  X0, X0
	ADDSD  X1, X0
	MOVSD  X0, (DI)(CX*8)
	INCQ   CX
	CMPQ   CX, $64
	JLT    lane
	XORL   CX, CX
	DECQ   AX
	JNZ    lane

	// Accumulator k sums lanes k, k+8, …, k+56 in that order; X0..X3
	// hold accumulators (0,1), (2,3), (4,5) and (6,7).
reduce:
	MOVUPD 0(SI), X0
	MOVUPD 16(SI), X1
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	MOVUPD 64(SI), X4
	MOVUPD 80(SI), X5
	MOVUPD 96(SI), X6
	MOVUPD 112(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 128(SI), X4
	MOVUPD 144(SI), X5
	MOVUPD 160(SI), X6
	MOVUPD 176(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 192(SI), X4
	MOVUPD 208(SI), X5
	MOVUPD 224(SI), X6
	MOVUPD 240(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 256(SI), X4
	MOVUPD 272(SI), X5
	MOVUPD 288(SI), X6
	MOVUPD 304(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 320(SI), X4
	MOVUPD 336(SI), X5
	MOVUPD 352(SI), X6
	MOVUPD 368(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 384(SI), X4
	MOVUPD 400(SI), X5
	MOVUPD 416(SI), X6
	MOVUPD 432(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	MOVUPD 448(SI), X4
	MOVUPD 464(SI), X5
	MOVUPD 480(SI), X6
	MOVUPD 496(SI), X7
	ADDPD  X4, X0
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3

	// ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)): each step pairs the low
	// halves against the high halves.
	MOVAPD   X0, X4
	UNPCKLPD X1, X0 // (s0, s2)
	UNPCKHPD X1, X4 // (s1, s3)
	ADDPD    X4, X0 // (s0+s1, s2+s3)
	MOVAPD   X2, X5
	UNPCKLPD X3, X2 // (s4, s6)
	UNPCKHPD X3, X5 // (s5, s7)
	ADDPD    X5, X2 // (s4+s5, s6+s7)
	MOVAPD   X0, X4
	UNPCKLPD X2, X0 // (s0+s1, s4+s5)
	UNPCKHPD X2, X4 // (s2+s3, s6+s7)
	ADDPD    X4, X0
	MOVHLPS  X0, X1
	ADDSD    X1, X0
	MOVSD    X0, ret+16(FP)
	RET
