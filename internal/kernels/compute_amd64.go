package kernels

// compute is the compute kernel over a 64-lane array starting at
// *init, which it does not modify: iterations passes of
// a[i] = a[i]*a[i] + a[i], then the sum of the lanes. It is
// bit-identical to computeGo. The multiply-add loop's head is 64-byte
// aligned, so its speed does not depend on where the linker places
// the function.
//
//go:noescape
func compute(init *[computeWidth]float64, iterations int64) float64
