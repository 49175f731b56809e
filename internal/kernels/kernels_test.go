package kernels

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeStringsRoundTrip(t *testing.T) {
	for _, typ := range []Type{Empty, BusyWait, ComputeBound, MemoryBound, LoadImbalance} {
		back, err := ParseType(typ.String())
		if err != nil || back != typ {
			t.Errorf("round trip of %v failed: %v, %v", typ, back, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("ParseType accepted bogus name")
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{Type: Empty},
		{Type: BusyWait, WaitDuration: time.Microsecond},
		{Type: ComputeBound, Iterations: 10},
		{Type: MemoryBound, Iterations: 10, SpanBytes: 64},
		{Type: LoadImbalance, Iterations: 10, ImbalanceFactor: 1},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	invalid := []Config{
		{Type: Type(42)},
		{Type: ComputeBound, Iterations: -1},
		{Type: MemoryBound, Iterations: 10},
		{Type: BusyWait, WaitDuration: -time.Second},
		{Type: LoadImbalance, ImbalanceFactor: 2},
		{Type: LoadImbalance, ImbalanceFactor: -0.5},
		{Type: LoadImbalance, ImbalanceFactor: math.NaN()},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestFlopsPerTask(t *testing.T) {
	c := Config{Type: ComputeBound, Iterations: 100}
	if got := c.FlopsPerTask(); got != 100*FlopsPerIteration {
		t.Errorf("FlopsPerTask = %v, want %v", got, 100*FlopsPerIteration)
	}
	imb := Config{Type: LoadImbalance, Iterations: 100, ImbalanceFactor: 1}
	if got := imb.FlopsPerTask(); got != 100*FlopsPerIteration*0.5 {
		t.Errorf("imbalanced FlopsPerTask = %v, want half", got)
	}
	if got := (Config{Type: Empty}).FlopsPerTask(); got != 0 {
		t.Errorf("empty FlopsPerTask = %v, want 0", got)
	}
}

func TestBytesPerTask(t *testing.T) {
	c := Config{Type: MemoryBound, Iterations: 4, SpanBytes: 256}
	if got := c.BytesPerTask(); got != 4*256*2 {
		t.Errorf("BytesPerTask = %v, want %v", got, 4*256*2)
	}
	if got := (Config{Type: ComputeBound}).BytesPerTask(); got != 0 {
		t.Errorf("compute BytesPerTask = %v, want 0", got)
	}
}

func TestComputeKernelScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// The fastest of several runs per size: a single run on a busy host
	// can lose its CPU for part of the run, and one such stall skews the
	// ratio (a 1.9x was once read on a loaded 2-CPU machine).
	timeIters := func(n int64) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			keep(executeCompute(n))
			best = min(best, time.Since(start))
		}
		return best
	}
	// Warm up, then compare 1x vs 4x.
	timeIters(200_000)
	t1 := timeIters(400_000)
	t4 := timeIters(1_600_000)
	ratio := float64(t4) / float64(t1)
	if ratio < 2 || ratio > 8 {
		t.Errorf("4x iterations took %.1fx the time, want ≈ 4x", ratio)
	}
}

// TestComputeKernelRecurrence pins the paper's kernel through the
// fixed-cost prologue and epilogue: every one of the 64 lanes starts at
// 1.2345 and runs x ← x·x + x once per iteration, so the reduction is
// 64 copies of one independently computed lane (the accumulators only
// reassociate the sum). Past ~10 iterations the lane overflows to +Inf,
// which the sum must reproduce exactly.
func TestComputeKernelRecurrence(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 64, 1000} {
		x := 1.2345
		for range n {
			x = x*x + x
		}
		want := computeWidth * x
		got := executeCompute(n)
		if got != want && !(math.Abs(got-want) <= 1e-12*math.Abs(want)) {
			t.Errorf("executeCompute(%d) = %v, want 64 × %v = %v", n, got, x, want)
		}
	}
}

// TestExecuteAllocatesNothing holds every kernel to zero heap
// allocations per call: in particular the compute kernel's 64-lane
// working array must stay on the stack (the assembly kernel's frame on
// amd64, computeGo's copy of the initial lanes elsewhere).
func TestExecuteAllocatesNothing(t *testing.T) {
	s := NewScratch(4096)
	for _, c := range []Config{
		{Type: Empty},
		{Type: BusyWait, WaitDuration: time.Nanosecond},
		{Type: ComputeBound, Iterations: 10},
		{Type: MemoryBound, Iterations: 2, SpanBytes: 64},
		{Type: LoadImbalance, Iterations: 10, ImbalanceFactor: 1},
	} {
		if got := testing.AllocsPerRun(100, func() { Execute(c, s, 0.5) }); got != 0 {
			t.Errorf("Execute(%v) allocates %v objects per call, want 0", c.Type, got)
		}
	}
}

func TestMemoryKernelConstantWorkingSet(t *testing.T) {
	s := NewScratch(1 << 16)
	// Streaming more iterations than fit in the buffer must wrap, not
	// grow the working set.
	before := s.Bytes()
	keep(executeMemory(64, 4096, s))
	if s.Bytes() != before {
		t.Errorf("working set changed from %d to %d bytes", before, s.Bytes())
	}
}

func TestMemoryKernelPositionAdvances(t *testing.T) {
	s := NewScratch(1 << 12)
	keep(executeMemory(1, 64, s))
	if s.pos != 8 {
		t.Errorf("stream position = %d, want 8 words", s.pos)
	}
	s.Reset()
	if s.pos != 0 {
		t.Error("Reset did not rewind position")
	}
}

func TestMemoryKernelNilAndEmptyScratch(t *testing.T) {
	if got := executeMemory(10, 64, nil); got != 0 {
		t.Errorf("nil scratch returned %v, want 0", got)
	}
	if got := executeMemory(10, 64, NewScratch(0)); got != 0 {
		t.Errorf("empty scratch returned %v, want 0", got)
	}
}

func TestBusyWaitDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	start := time.Now()
	executeBusyWait(2 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("busy wait returned after %v, want >= 2ms", elapsed)
	}
	executeBusyWait(0) // must not hang
}

func TestImbalancedIterations(t *testing.T) {
	c := Config{Type: LoadImbalance, Iterations: 1000, ImbalanceFactor: 1}
	if got := imbalancedIterations(c, 0); got != 0 {
		t.Errorf("mult 0 → %d iterations, want 0", got)
	}
	if got := imbalancedIterations(c, 0.5); got != 500 {
		t.Errorf("mult 0.5 → %d iterations, want 500", got)
	}
	half := Config{Type: LoadImbalance, Iterations: 1000, ImbalanceFactor: 0.5}
	if got := imbalancedIterations(half, 0); got != 500 {
		t.Errorf("factor 0.5, mult 0 → %d iterations, want 500", got)
	}
	balanced := Config{Type: LoadImbalance, Iterations: 1000, ImbalanceFactor: 0}
	if got := imbalancedIterations(balanced, 0.123); got != 1000 {
		t.Errorf("factor 0 → %d iterations, want 1000", got)
	}
}

// Property: imbalanced iteration counts stay within [iters*(1-f), iters].
func TestImbalancedIterationsBoundsProperty(t *testing.T) {
	f := func(itersRaw uint16, factorRaw, multRaw uint8) bool {
		iters := int64(itersRaw)
		factor := float64(factorRaw) / 255
		mult := float64(multRaw) / 256
		c := Config{Type: LoadImbalance, Iterations: iters, ImbalanceFactor: factor}
		got := imbalancedIterations(c, mult)
		lo := int64(float64(iters) * (1 - factor))
		return got >= lo-1 && got <= iters
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecuteDispatch(t *testing.T) {
	// Every kernel type must run without panicking.
	s := NewScratch(4096)
	Execute(Config{Type: Empty}, nil, 0)
	Execute(Config{Type: BusyWait, WaitDuration: time.Microsecond}, nil, 0)
	Execute(Config{Type: ComputeBound, Iterations: 10}, nil, 0)
	Execute(Config{Type: MemoryBound, Iterations: 2, SpanBytes: 64}, s, 0)
	Execute(Config{Type: LoadImbalance, Iterations: 10, ImbalanceFactor: 1}, nil, 0.5)

	defer func() {
		if recover() == nil {
			t.Error("Execute did not panic on invalid type")
		}
	}()
	Execute(Config{Type: Type(42)}, nil, 0)
}

func TestCalibrate(t *testing.T) {
	c := Calibrate()
	if c.FlopsPerSecondPerCore <= 0 || c.BytesPerSecondPerCore <= 0 || c.Cores <= 0 {
		t.Fatalf("implausible calibration %+v", c)
	}
	if c.PeakFlops() != c.FlopsPerSecondPerCore*float64(c.Cores) {
		t.Error("PeakFlops inconsistent")
	}
	// Cached: second call returns identical values.
	if c2 := Calibrate(); c2 != c {
		t.Error("Calibrate not cached")
	}
}

func TestScratchBytes(t *testing.T) {
	if got := NewScratch(1000).Bytes(); got != 1000/8*8 {
		t.Errorf("Bytes = %d, want %d", got, 1000/8*8)
	}
	if got := (*Scratch)(nil).Bytes(); got != 0 {
		t.Errorf("nil Bytes = %d, want 0", got)
	}
	NewScratch(-5) // must not panic
}
