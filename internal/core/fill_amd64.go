package core

// fillAVX2 writes blocks whole 128-byte blocks of fill lanes at p, the
// first lane being v+fillStep, and returns v+16·blocks·fillStep, the
// running value the Go loop continues from. blocks must be at least 1.
// The loop head is 64-byte aligned, so its speed does not depend on
// where the linker places the function.
//
//go:noescape
func fillAVX2(p *byte, blocks int, v uint64) uint64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2 // XCR0: XMM and YMM saved
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
