package kernels

import (
	"encoding/binary"
	"math"
	"testing"
)

// distinctLanes returns 64 lanes that all differ, in (-1, 0) where
// x ← x·x + x stays finite and non-zero for thousands of iterations, so
// every accumulator of the reduction carries its own value.
func distinctLanes() *[computeWidth]float64 {
	var a [computeWidth]float64
	for i := range a {
		a[i] = -float64(i+1) / (computeWidth + 3)
	}
	return &a
}

// sameBits reports whether the kernel's result matches the oracle's:
// equal bits, or both NaN (which NaN two NaN operands propagate depends
// on their order, and commutative adds may take them either way).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// TestComputeKernelBitExact holds the compute kernel to the Go body bit
// for bit, over the paper's lanes and over lanes that all differ: with
// 64 equal lanes a reduction that pairs the wrong lanes sums the same
// values and still passes. Both inputs must come back unmodified.
func TestComputeKernelBitExact(t *testing.T) {
	for _, c := range []struct {
		name  string
		lanes *[computeWidth]float64
	}{
		{"computeInit", &computeInit},
		{"distinct", distinctLanes()},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := *c.lanes
			for n := int64(-1); n <= 3000; n++ {
				got, want := compute(c.lanes, n), computeGo(c.lanes, n)
				if !sameBits(got, want) {
					t.Fatalf("compute(%d) = %v (%#x), Go body %v (%#x)",
						n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if *c.lanes != before {
				t.Error("compute modified its initial lanes")
			}
		})
	}
}

// FuzzComputeKernel holds the compute kernel to the Go body on any 64
// lanes (the bytes as little-endian float64s, zero past the end) and
// any iteration count up to 3000.
func FuzzComputeKernel(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.2345)), int64(7))
	var seed []byte
	for _, x := range distinctLanes() {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, int64(3000))
	f.Add(seed, int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		// Decoded without a branch on len(data), so coverage follows n
		// alone and minimizing an input only trims its bytes.
		var raw [8 * computeWidth]byte
		copy(raw[:], data)
		var lanes [computeWidth]float64
		for i := range lanes {
			lanes[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		n %= 3001
		if got, want := compute(&lanes, n), computeGo(&lanes, n); !sameBits(got, want) {
			t.Fatalf("compute(%d) = %v (%#x), Go body %v (%#x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
