package kernels

import (
	"runtime"
	"sync"
	"time"
)

// Calibration holds empirically measured peak rates for the machine the
// benchmark is running on. The paper calibrates 100% efficiency against
// the best measured FLOP/s (1.26 TFLOP/s on a Cori Haswell node) rather
// than a theoretical number (§5.1); we do the same.
type Calibration struct {
	// FlopsPerSecondPerCore is the single-core compute-bound kernel
	// throughput.
	FlopsPerSecondPerCore float64
	// BytesPerSecondPerCore is the single-core memory-bound kernel
	// throughput (read+write bytes).
	BytesPerSecondPerCore float64
	// Cores is the number of cores the calibration assumed.
	Cores int
}

// PeakFlops returns the machine peak FLOP/s assuming linear scaling
// across the calibrated core count.
func (c Calibration) PeakFlops() float64 {
	return c.FlopsPerSecondPerCore * float64(c.Cores)
}

var (
	calOnce sync.Once
	cal     Calibration
)

// Calibrate measures single-core kernel throughput on the current
// machine. The result is cached for the lifetime of the process: Task
// Bench efficiency numbers must all be computed against the same peak.
func Calibrate() Calibration {
	calOnce.Do(func() {
		cal = measure()
	})
	return cal
}

func measure() Calibration {
	cores := runtime.GOMAXPROCS(0)

	// Compute-bound: run enough iterations to dominate timer overhead.
	const computeIters = 2_000_000
	start := time.Now()
	keep(executeCompute(computeIters))
	computeElapsed := time.Since(start)
	flops := float64(computeIters) * FlopsPerIteration / computeElapsed.Seconds()

	// Memory-bound: stream through an L2-busting working set.
	scratch := NewScratch(8 << 20)
	const memIters = 64
	span := int64(1 << 20)
	start = time.Now()
	keep(executeMemory(memIters, span, scratch))
	memElapsed := time.Since(start)
	bytes := float64(memIters) * float64(span) * 2 / memElapsed.Seconds()

	return Calibration{
		FlopsPerSecondPerCore: flops,
		BytesPerSecondPerCore: bytes,
		Cores:                 cores,
	}
}
