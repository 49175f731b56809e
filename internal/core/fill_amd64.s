#include "textflag.h"

// fillLanes holds k·fillStep (mod 2^64) for k = 1..16: the offsets of
// one 128-byte block's sixteen lanes from the running value v. The last
// entry, 16·fillStep, is also the per-block step.
DATA fillLanes<>+0x00(SB)/8, $0x9e3779b97f4a7c15
DATA fillLanes<>+0x08(SB)/8, $0x3c6ef372fe94f82a
DATA fillLanes<>+0x10(SB)/8, $0xdaa66d2c7ddf743f
DATA fillLanes<>+0x18(SB)/8, $0x78dde6e5fd29f054
DATA fillLanes<>+0x20(SB)/8, $0x1715609f7c746c69
DATA fillLanes<>+0x28(SB)/8, $0xb54cda58fbbee87e
DATA fillLanes<>+0x30(SB)/8, $0x538454127b096493
DATA fillLanes<>+0x38(SB)/8, $0xf1bbcdcbfa53e0a8
DATA fillLanes<>+0x40(SB)/8, $0x8ff34785799e5cbd
DATA fillLanes<>+0x48(SB)/8, $0x2e2ac13ef8e8d8d2
DATA fillLanes<>+0x50(SB)/8, $0xcc623af8783354e7
DATA fillLanes<>+0x58(SB)/8, $0x6a99b4b1f77dd0fc
DATA fillLanes<>+0x60(SB)/8, $0x08d12e6b76c84d11
DATA fillLanes<>+0x68(SB)/8, $0xa708a824f612c926
DATA fillLanes<>+0x70(SB)/8, $0x454021de755d453b
DATA fillLanes<>+0x78(SB)/8, $0xe3779b97f4a7c150
GLOBL fillLanes<>(SB), RODATA|NOPTR, $128

// func fillAVX2(p *byte, blocks int, v uint64) uint64
//
// Y0..Y3 hold lanes v+1·s … v+16·s; each block stores x ^ x>>29 of all
// sixteen and then steps every lane by 16·s.
TEXT ·fillAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ v+16(FP), AX

	// Return value first, while CX still holds the block count.
	MOVQ fillLanes<>+0x78(SB), R8
	IMULQ CX, R8
	ADDQ AX, R8
	MOVQ R8, ret+24(FP)

	VPBROADCASTQ v+16(FP), Y15
	VPADDQ fillLanes<>+0x00(SB), Y15, Y0
	VPADDQ fillLanes<>+0x20(SB), Y15, Y1
	VPADDQ fillLanes<>+0x40(SB), Y15, Y2
	VPADDQ fillLanes<>+0x60(SB), Y15, Y3
	VPBROADCASTQ fillLanes<>+0x78(SB), Y4

	PCALIGN $64
loop:
	VPSRLQ  $29, Y0, Y5
	VPXOR   Y0, Y5, Y5
	VMOVDQU Y5, 0(DI)
	VPSRLQ  $29, Y1, Y6
	VPXOR   Y1, Y6, Y6
	VMOVDQU Y6, 32(DI)
	VPSRLQ  $29, Y2, Y7
	VPXOR   Y2, Y7, Y7
	VMOVDQU Y7, 64(DI)
	VPSRLQ  $29, Y3, Y8
	VPXOR   Y3, Y8, Y8
	VMOVDQU Y8, 96(DI)
	VPADDQ  Y4, Y0, Y0
	VPADDQ  Y4, Y1, Y1
	VPADDQ  Y4, Y2, Y2
	VPADDQ  Y4, Y3, Y3
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
