//go:build !amd64

package kernels

// Off amd64 the compute kernel is the Go body.
func compute(init *[computeWidth]float64, iterations int64) float64 {
	return computeGo(init, iterations)
}
