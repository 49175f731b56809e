//go:build !amd64

package core

// Off amd64 the guard in WriteOutput is constant false and the Go loop
// writes every payload body.
const hasAVX2 = false

func fillAVX2(p *byte, blocks int, v uint64) uint64 {
	panic("core: fillAVX2 without AVX2")
}
