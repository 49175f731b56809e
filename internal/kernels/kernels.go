// Package kernels implements the computational kernels executed by Task
// Bench tasks. The kernels mirror the ones in the paper's core library
// (§2): a compute-bound kernel (a tight 64-wide multiply-add loop), a
// memory-bound kernel that keeps its working set constant as the
// iteration count shrinks, a busy-wait kernel, an empty kernel, and a
// load-imbalance kernel that scales the compute kernel's duration by a
// deterministic uniform random variable in [0, 1).
//
// The paper's kernels are hand-written with AVX2 FMA intrinsics; these
// are scalar loops (the compute kernel in SSE2 assembly on amd64, in Go
// elsewhere) with the same scaling property: duration is linear in
// Iterations at a fixed working-set size.
// Efficiency in Task Bench is always measured against an empirically
// calibrated peak (see Calibrate), so absolute FLOP/s do not affect the
// shape of any result.
//
// Every task of every backend calls Execute, so whatever a call costs
// outside the kernel's loop reads as runtime overhead in METG. That
// cost is kept small and constant: on amd64 the compute kernel is
// assembly that copies nothing in and reduces in straight-line packed
// adds, and every kernel publishes its result without a locked
// instruction.
package kernels

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Type identifies a kernel.
type Type int

// Kernel types. ComputeBound and MemoryBound are the two main kernels
// from the paper; the others support specific experiments (empty tasks
// for scheduling-throughput limit studies, busy-wait for precise
// durations, load imbalance for §5.7).
const (
	Empty Type = iota
	BusyWait
	ComputeBound
	MemoryBound
	LoadImbalance
)

var typeNames = map[Type]string{
	Empty:         "empty",
	BusyWait:      "busy_wait",
	ComputeBound:  "compute_bound",
	MemoryBound:   "memory_bound",
	LoadImbalance: "load_imbalance",
}

// String returns the canonical CLI name of the kernel type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("kernels.Type(%d)", int(t))
}

// ParseType converts a CLI name into a kernel Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if s == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("kernels: unknown kernel type %q", s)
}

// computeWidth is the vector width of the compute kernel's accumulator
// array, matching the paper's 64-element buffer (Listing 1).
const computeWidth = 64

// FlopsPerIteration is the number of floating point operations the
// compute-bound kernel performs per iteration: one multiply and one add
// per element of the 64-wide accumulator.
const FlopsPerIteration = computeWidth * 2

// Config describes a kernel invocation. It is embedded in a task
// graph's parameters so that every task in a graph runs an identical
// kernel.
type Config struct {
	// Type selects the kernel.
	Type Type

	// Iterations controls kernel duration (and thus simulated problem
	// size) for ComputeBound, MemoryBound and LoadImbalance.
	Iterations int64

	// SpanBytes is the number of bytes the memory-bound kernel streams
	// through per iteration. The kernel wraps around the scratch buffer
	// so the total working set stays constant as Iterations shrinks.
	SpanBytes int64

	// WaitDuration is the spin duration for BusyWait.
	WaitDuration time.Duration

	// ImbalanceFactor scales the amplitude of the load-imbalance
	// multiplier. A factor of 1.0 reproduces the paper's uniform [0, 1)
	// scaling; 0 disables the imbalance.
	ImbalanceFactor float64

	// PersistentImbalance makes the load-imbalance multiplier a
	// function of the column only, so a slow column stays slow in
	// every timestep. The paper studies non-persistent imbalance
	// (timestep t uncorrelated with t+1) and leaves the persistent
	// case to future work (§5.7); this implements that extension.
	PersistentImbalance bool
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Iterations < 0 {
		return errors.New("kernels: iterations must be non-negative")
	}
	switch c.Type {
	case Empty, BusyWait, ComputeBound, MemoryBound, LoadImbalance:
	default:
		return fmt.Errorf("kernels: invalid kernel type %d", int(c.Type))
	}
	if c.Type == MemoryBound && c.SpanBytes <= 0 {
		return errors.New("kernels: memory_bound kernel requires span bytes > 0")
	}
	if c.Type == BusyWait && c.WaitDuration < 0 {
		return errors.New("kernels: busy_wait duration must be non-negative")
	}
	if !(c.ImbalanceFactor >= 0 && c.ImbalanceFactor <= 1) { // NaN fails too
		return errors.New("kernels: imbalance factor must be in [0, 1]")
	}
	return nil
}

// FlopsPerTask returns the floating point work performed by one task,
// used by the harness to convert wall time into FLOP/s.
func (c Config) FlopsPerTask() float64 {
	switch c.Type {
	case ComputeBound:
		return float64(c.Iterations) * FlopsPerIteration
	case LoadImbalance:
		// Expected value: the multiplier is uniform over [0, 1) scaled
		// by ImbalanceFactor around a mean of 1-factor/2.
		return float64(c.Iterations) * FlopsPerIteration * (1 - c.ImbalanceFactor/2)
	default:
		return 0
	}
}

// BytesPerTask returns the memory traffic generated by one task, used
// to convert wall time into B/s for the memory-bound plots (Figure 8).
func (c Config) BytesPerTask() float64 {
	if c.Type != MemoryBound {
		return 0
	}
	// Each streamed element is read and written once.
	return float64(c.Iterations) * float64(c.SpanBytes) * 2
}

// sink prevents the compiler from eliding kernel loops as dead code.
// Kernels run concurrently on many goroutines, so the store is atomic.
var sink atomic.Uint64

// sinkNaN is a NaN payload no kernel can produce: kernel inputs are
// never NaN, and from non-NaN inputs hardware arithmetic generates only
// the default quiet NaN.
const sinkNaN = 0x7ff8_5ea1_0000_c0de

// keep makes a kernel result observable: the branch on its bits is
// data-dependent, so the compiler cannot drop the kernel, but the
// store it guards never runs, so no call pays a locked instruction.
func keep(v float64) {
	if b := math.Float64bits(v); b == sinkNaN {
		sink.Store(b)
	}
}

// Execute runs the configured kernel. scratch is the task's persistent
// working set (may be nil for kernels that do not use one). mult is the
// deterministic load-imbalance multiplier in [0, 1) supplied by the
// core library; it is ignored by every kernel except LoadImbalance.
func Execute(c Config, scratch *Scratch, mult float64) {
	var r float64
	switch c.Type {
	case Empty:
	case BusyWait:
		executeBusyWait(c.WaitDuration)
	case ComputeBound:
		r = executeCompute(c.Iterations)
	case MemoryBound:
		r = executeMemory(c.Iterations, c.SpanBytes, scratch)
	case LoadImbalance:
		r = executeCompute(imbalancedIterations(c, mult))
	default:
		panic(fmt.Sprintf("kernels: invalid kernel type %d", int(c.Type)))
	}
	keep(r)
}

// imbalancedIterations converts the uniform multiplier into an
// iteration count: duration is scaled by (1-factor) + factor*mult, so
// factor=1 reproduces the paper's pure uniform [0, 1) task durations.
func imbalancedIterations(c Config, mult float64) int64 {
	scale := (1 - c.ImbalanceFactor) + c.ImbalanceFactor*mult
	return int64(float64(c.Iterations) * scale)
}

// computeInit is the compute kernel's starting array.
var computeInit = func() (a [computeWidth]float64) {
	for i := range a {
		a[i] = 1.2345
	}
	return a
}()

// executeCompute is the compute-bound kernel: the direct analog of the
// paper's Listing 1 (A[i] = A[i] * A[i] + A[i] over a 64-wide array).
func executeCompute(iterations int64) float64 {
	return compute(&computeInit, iterations)
}

// computeGo is the compute kernel in Go: what compute runs off amd64,
// and the oracle the assembly kernel is tested against. Outside the
// loop it pays a constant few nanoseconds: a block copy in, and a
// reduction over eight independent accumulators out, so no lane waits
// on a 64-deep chain of dependent adds.
func computeGo(init *[computeWidth]float64, iterations int64) float64 {
	a := *init
	for iter := int64(0); iter < iterations; iter++ {
		for i := 0; i < computeWidth; i++ {
			a[i] = a[i]*a[i] + a[i]
		}
	}
	s0, s1, s2, s3, s4, s5, s6, s7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	for i := 8; i < computeWidth; i += 8 {
		l := (*[8]float64)(a[i:])
		s0 += l[0]
		s1 += l[1]
		s2 += l[2]
		s3 += l[3]
		s4 += l[4]
		s5 += l[5]
		s6 += l[6]
		s7 += l[7]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// executeMemory is the memory-bound kernel: sequential reads and writes
// over the scratch buffer. The working set (the whole scratch buffer)
// is constant regardless of iteration count: each iteration streams
// SpanBytes starting where the previous one stopped, wrapping around,
// which avoids the unwanted cache speedups the paper warns about (§2).
func executeMemory(iterations, spanBytes int64, scratch *Scratch) float64 {
	if scratch == nil || len(scratch.words) == 0 {
		return 0
	}
	words := scratch.words
	spanWords := int(spanBytes / 8)
	if spanWords <= 0 {
		spanWords = 1
	}
	if spanWords > len(words) {
		spanWords = len(words)
	}
	pos := scratch.pos
	var s float64
	for iter := int64(0); iter < iterations; iter++ {
		for n := 0; n < spanWords; n++ {
			v := words[pos]*1.0001 + 0.5
			words[pos] = v
			s += v
			pos++
			if pos == len(words) {
				pos = 0
			}
		}
	}
	scratch.pos = pos
	return s
}

// executeBusyWait spins for the requested duration.
func executeBusyWait(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}
