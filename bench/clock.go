package main

import (
	"io"
	"net"
	"sort"
	"time"
)

// refNominalNS is the reference loop's cost per iteration on a quiet
// host. Every timing is multiplied by refNominalNS / (the loop's cost
// measured right beside it), so metrics read as ns/us/ms/s of that
// quiet host whatever the CPU is doing during the run.
const refNominalNS = 17.4

// loopNominalNS is the loopback ruler's cost per round trip on the same
// quiet host: what a path's overhead is priced against when its work is
// kernel crossings on loopback sockets rather than arithmetic.
const loopNominalNS = 2380

const (
	refWidth    = 64
	refSubIters = 5600 // ~0.1 ms; a sample is the median of three
	// maxSlice is how long a run of short timed calls may share one
	// pair of reference samples; a single longer call gets its own.
	maxSlice = 15 * time.Millisecond
)

// refSink keeps the reference loop's result alive.
var refSink float64

// refLoop is the ruler: a frozen copy of the 64-wide multiply-add
// kernel. It is deliberately not kernels.Execute, so a later change to
// the kernel cannot move the ruler with it. Unlike the kernel it is
// unrolled by eight: the kernel's seven-instruction inner loop costs
// 30.7 or 35.3 ns an iteration on this host depending on whether the
// linker happened to place the function at 0 or 32 modulo 64, so a copy
// of it would read differently in every build; unrolled, the loop is
// bound by the floating-point ports and costs the same wherever it
// lands (README.md has the measurements).
//
//go:noinline
func refLoop(iters int) float64 {
	var a [refWidth]float64
	for i := range a {
		a[i] = 1.2345
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < refWidth; i += 8 {
			a[i] = a[i]*a[i] + a[i]
			a[i+1] = a[i+1]*a[i+1] + a[i+1]
			a[i+2] = a[i+2]*a[i+2] + a[i+2]
			a[i+3] = a[i+3]*a[i+3] + a[i+3]
			a[i+4] = a[i+4]*a[i+4] + a[i+4]
			a[i+5] = a[i+5]*a[i+5] + a[i+5]
			a[i+6] = a[i+6]*a[i+6] + a[i+6]
			a[i+7] = a[i+7]*a[i+7] + a[i+7]
		}
	}
	var s float64
	for i := range a {
		s += a[i]
	}
	return s
}

// loopback is the second ruler: 64 bytes written to one end of a
// loopback TCP connection of the bench's own and read from the other,
// by the one goroutine, so nothing parks. For tens of seconds at a time
// this host makes the loopback path 20-40% dearer while the
// multiply-add loop reads normal (README.md has the watch); a path
// whose overhead is loopback traffic follows this ruler, not that one.
// It uses the standard library only, so nothing in the repository can
// move it.
type loopback struct {
	a, b net.Conn
	buf  [64]byte
}

const loopSubTrips = 10 // ~25 us; a sample is the median of three

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	b, err := ln.Accept()
	if err != nil {
		a.Close()
		return nil, err
	}
	return &loopback{a: a, b: b}, nil
}

// sample returns the median cost of a round trip, in nanoseconds. A
// failed write or read reads as a free one, and the run's own jobs fail
// with it: the ruler shares the loopback interface with them.
func (l *loopback) sample() float64 {
	return medianOf3(func() float64 {
		start := time.Now()
		for k := 0; k < loopSubTrips; k++ {
			l.a.Write(l.buf[:])
			io.ReadFull(l.b, l.buf[:])
		}
		return float64(time.Since(start)) / loopSubTrips
	})
}

func (l *loopback) close() {
	l.a.Close()
	l.b.Close()
}

// factors convert wall-clock nanoseconds measured inside one bracket to
// ref-clock nanoseconds: compute for time spent in arithmetic, overhead
// for the rest of a job on this workload's path. The two are equal on a
// workload without a loopback ruler.
type factors struct{ compute, overhead float64 }

// clock takes reference samples and converts wall time to ref-clock
// time.
type clock struct {
	last    float64   // ns/iter of the most recent sample
	lastEnd time.Time // when that sample ended
	samples []float64 // every sample taken, for bench.ref_*

	loop        *loopback // nil: overhead is priced on the multiply-add loop too
	lastLoop    float64   // ns/round trip of the most recent sample
	loopSamples []float64
}

// sample runs the reference loop three times (~0.3 ms in all) and
// returns the median cost per iteration, so one interrupt inside the
// sample does not bend the ruler.
func (c *clock) sample() float64 {
	c.last = medianOf3(func() float64 {
		start := time.Now()
		refSink += refLoop(refSubIters)
		return float64(time.Since(start)) / refSubIters
	})
	if c.loop != nil {
		c.lastLoop = c.loop.sample()
		c.loopSamples = append(c.loopSamples, c.lastLoop)
	}
	c.lastEnd = time.Now()
	c.samples = append(c.samples, c.last)
	return c.last
}

// medianOf3 calls measure three times and returns the middle reading.
func medianOf3(measure func() float64) float64 {
	sub := [3]float64{measure(), measure(), measure()}
	sort.Float64s(sub[:])
	return sub[1]
}

// bracket runs fn between two reference samples and returns the
// factors that convert wall-clock nanoseconds measured inside fn to
// ref-clock nanoseconds. Back-to-back brackets share the sample between
// them.
func (c *clock) bracket(fn func()) factors {
	if c.lastEnd.IsZero() || time.Since(c.lastEnd) > 100*time.Microsecond {
		c.sample()
	}
	before, beforeLoop := c.last, c.lastLoop
	fn()
	f := factors{compute: refScale(refNominalNS, before, c.sample())}
	f.overhead = f.compute
	if c.loop != nil {
		f.overhead = refScale(loopNominalNS, beforeLoop, c.lastLoop)
	}
	return f
}

// refScale is the normalisation factor for a timing taken between two
// samples of a ruler that costs nominal on a quiet host.
func refScale(nominal, before, after float64) float64 {
	return nominal / ((before + after) / 2)
}

// refClock prices one wall-clock timing: the part of it that is kernel
// arithmetic (computeRef nanoseconds, already ref-clock) on the
// multiply-add ruler, what is left of it on the path's overhead ruler.
func (f factors) refClock(wall, computeRef float64) float64 {
	return computeRef + (wall*f.compute-computeRef)*f.overhead/f.compute
}
