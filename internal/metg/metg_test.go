package metg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/stats"
)

// syntheticRunner models a runtime with a fixed per-task overhead: a
// task of duration d achieves efficiency d/(d+overhead). This is the
// idealized curve of Figure 3.
func syntheticRunner(overhead time.Duration, tasks int64, peak float64) Runner {
	return func(iterations int64) core.RunStats {
		perTask := time.Duration(iterations) * time.Microsecond // 1 µs per iteration
		elapsed := time.Duration(tasks) * (perTask + overhead)
		return core.RunStats{
			Elapsed: elapsed,
			Tasks:   tasks,
			Flops:   float64(iterations) * float64(tasks) * peak / 1e6 * float64(time.Microsecond) / float64(time.Second) * 1e6,
			Workers: 1,
		}
	}
}

// flopsRunner builds a runner whose efficiency is exactly
// work/(work+overhead) against peak=1.
func flopsRunner(overhead time.Duration, tasks int64) Runner {
	return func(iterations int64) core.RunStats {
		work := time.Duration(iterations) * time.Microsecond
		elapsed := time.Duration(tasks) * (work + overhead)
		return core.RunStats{
			Elapsed: elapsed,
			Tasks:   tasks,
			// Useful work in "flop" units: 1 flop per second of work
			// against a peak of 1 flop/s.
			Flops:   work.Seconds() * float64(tasks),
			Workers: 1,
		}
	}
}

func TestMETGMatchesOverhead(t *testing.T) {
	// With efficiency = work/(work+ovh), 50% efficiency is exactly at
	// work = overhead, so granularity there is 2×overhead... but METG
	// is defined on granularity = wall×cores/tasks = work+ovh, i.e.
	// 2×overhead at the 50% point.
	overhead := 100 * time.Microsecond
	run := flopsRunner(overhead, 100)
	m, points, kind := Search(run, 1<<20, 1.0, 0, 0.5, 2)
	if kind != Measured {
		t.Fatalf("METG kind = %v, want measured; curve: %+v", kind, points)
	}
	want := 2 * overhead
	ratio := float64(m) / float64(want)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("METG = %v, want ≈ %v (ratio %.2f)", m, want, ratio)
	}
}

func TestMETGOrdering(t *testing.T) {
	// A runtime with 10× the overhead must have ≈10× the METG.
	fast, _, k1 := Search(flopsRunner(10*time.Microsecond, 50), 1<<20, 1.0, 0, 0.5, 2)
	slow, _, k2 := Search(flopsRunner(100*time.Microsecond, 50), 1<<20, 1.0, 0, 0.5, 2)
	if !k1.Reached() || !k2.Reached() {
		t.Fatal("METG not found")
	}
	ratio := float64(slow) / float64(fast)
	if ratio < 5 || ratio > 20 {
		t.Errorf("slow/fast METG ratio = %.1f, want ≈ 10", ratio)
	}
}

func TestMETGNotFound(t *testing.T) {
	// A runtime so slow it never reaches 50%.
	run := func(iterations int64) core.RunStats {
		return core.RunStats{
			Elapsed: time.Hour,
			Tasks:   10,
			Flops:   1, // negligible vs peak
			Workers: 1,
		}
	}
	if _, _, kind := Search(run, 1<<10, 1e12, 0, 0.5, 1); kind.Reached() {
		t.Error("Search claimed to find METG for a hopeless runtime")
	}
}

func TestMETGAllAboveThreshold(t *testing.T) {
	points := []Point{
		{Granularity: 10 * time.Millisecond, Efficiency: 0.99},
		{Granularity: 1 * time.Millisecond, Efficiency: 0.90},
		{Granularity: 100 * time.Microsecond, Efficiency: 0.80},
	}
	m, kind := METG(points, 0.5)
	if kind != UpperBound || m != 100*time.Microsecond {
		t.Errorf("METG = %v, %v; want upper bound 100µs", m, kind)
	}
}

func TestMETGInterpolatesCrossing(t *testing.T) {
	points := []Point{
		{Granularity: 1 * time.Millisecond, Efficiency: 1.0},
		{Granularity: 100 * time.Microsecond, Efficiency: 0.6},
		{Granularity: 10 * time.Microsecond, Efficiency: 0.2},
	}
	m, kind := METG(points, 0.5)
	if kind != Measured {
		t.Fatalf("crossing not found: kind = %v", kind)
	}
	if m >= 100*time.Microsecond || m <= 10*time.Microsecond {
		t.Errorf("METG = %v, want between 10µs and 100µs", m)
	}
}

func TestMETGEmptyCurve(t *testing.T) {
	if _, kind := METG(nil, 0.5); kind.Reached() {
		t.Error("METG on empty curve reported success")
	}
}

// TestMETGMinimumCrossingNonMonotone is the directed regression for
// the break-after-first-bracket bug: on a noisy curve that dips below
// the threshold, recovers, and dips again, METG is the crossing of the
// LAST bracket (smallest granularity), not the first.
func TestMETGMinimumCrossingNonMonotone(t *testing.T) {
	points := []Point{
		{Granularity: 8 * time.Millisecond, Efficiency: 0.9},
		{Granularity: 4 * time.Millisecond, Efficiency: 0.4},
		{Granularity: 2 * time.Millisecond, Efficiency: 0.8},
		{Granularity: 1 * time.Millisecond, Efficiency: 0.45},
	}
	m, kind := METG(points, 0.5)
	if kind != Measured {
		t.Fatalf("kind = %v, want measured", kind)
	}
	// The old code broke after the first bracket (8ms→4ms, crossing
	// above 4ms, worse than the 2ms point) and returned 2ms. The true
	// minimum crossing lies in the last bracket, between 1ms and 2ms.
	if m >= 2*time.Millisecond || m <= 1*time.Millisecond {
		t.Errorf("METG = %v, want the last bracket's crossing in (1ms, 2ms)", m)
	}
	want := time.Duration(stats.InterpLogX(
		float64(2*time.Millisecond), 0.8,
		float64(1*time.Millisecond), 0.45,
		0.5))
	if m != want {
		t.Errorf("METG = %v, want interpolated crossing %v", m, want)
	}
}

// refMETG is a brute-force reference for the property test: the
// minimum over all above-threshold point granularities and all
// adjacent-bracket crossings, written as one obvious pass.
func refMETG(points []Point, threshold float64) (time.Duration, Kind) {
	best := time.Duration(math.MaxInt64)
	kind := NotReached
	for _, p := range points {
		if p.Granularity > 0 && p.Efficiency >= threshold {
			if p.Granularity < best {
				best = p.Granularity
			}
			if kind == NotReached {
				kind = UpperBound
			}
		}
	}
	for k := 0; k+1 < len(points); k++ {
		a, b := points[k], points[k+1]
		if a.Granularity > 0 && b.Granularity > 0 &&
			a.Efficiency >= threshold && b.Efficiency < threshold {
			cross := time.Duration(stats.InterpLogX(
				float64(a.Granularity), a.Efficiency,
				float64(b.Granularity), b.Efficiency,
				threshold))
			if cross < best {
				best = cross
			}
			kind = Measured
		}
	}
	if kind == NotReached {
		return 0, NotReached
	}
	return best, kind
}

// TestMETGPropertyAgainstReference drives METG over randomized,
// deliberately non-monotone efficiency curves and checks value and
// kind against the brute-force reference.
func TestMETGPropertyAgainstReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%14
		points := make([]Point, n)
		g := float64((10 + rng.Intn(100))) * float64(time.Millisecond)
		for k := range points {
			points[k] = Point{
				Granularity: time.Duration(g),
				// Uniform noise straddling the threshold keeps multiple
				// crossings likely.
				Efficiency: rng.Float64() * 1.05,
			}
			g /= 1.2 + 2*rng.Float64() // strictly shrinking granularity
		}
		got, gotKind := METG(points, 0.5)
		want, wantKind := refMETG(points, 0.5)
		if got != want || gotKind != wantKind {
			t.Logf("curve %+v:\n got %v (%v)\nwant %v (%v)", points, got, gotKind, want, wantKind)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCurveShape(t *testing.T) {
	run := flopsRunner(50*time.Microsecond, 20)
	points := Curve(run, []int64{1 << 16, 1 << 12, 1 << 8, 1 << 4}, 1.0, 0)
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	// Efficiency must be non-increasing as problems shrink.
	for k := 1; k < len(points); k++ {
		if points[k].Efficiency > points[k-1].Efficiency+1e-9 {
			t.Errorf("efficiency increased from %v to %v as problem shrank",
				points[k-1].Efficiency, points[k].Efficiency)
		}
	}
	// Granularity shrinks too.
	if points[len(points)-1].Granularity >= points[0].Granularity {
		t.Error("granularity did not shrink with problem size")
	}
}

// Every backend but serial must drive the sweep through a reused
// session — an exec.Session (one Plan) or an exec.RankSession (one
// RankPlan: spans, edges, fabric) per configuration — with the mutated
// kernel applied at every point; serial takes the rebuild path. All
// must produce correct per-point stats.
func TestBackendSweepReusesSession(t *testing.T) {
	mkGraph := func(iterations int64) *core.Graph {
		return core.MustNew(core.Params{
			Timesteps: 10, MaxWidth: 4, Dependence: core.Stencil1D,
			Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: iterations},
		})
	}
	for name, session := range map[string]string{
		"taskpool": "policy", "dataflow": "policy", "places": "policy",
		"p2p": "ranks", "actor": "ranks", "coforall": "ranks",
		"serial": "none",
	} {
		rt, err := runtime.New(name)
		if err != nil {
			t.Fatalf("runtime.New(%q): %v", name, err)
		}
		got := "none"
		switch rt.(type) {
		case runtime.PolicyBacked:
			got = "policy"
		case runtime.RankBacked:
			got = "ranks"
		}
		if got != session {
			t.Fatalf("%s: the sweep would open a %q session, want %q", name, got, session)
		}
		sweep, done := BackendSweep(rt, mkGraph)
		defer done()
		want := mkGraph(1).TotalTasks()
		for _, it := range []int64{64, 16, 4} {
			st, err := sweep(it)
			if err != nil {
				t.Fatalf("%s sweep at %d iterations: %v", name, it, err)
			}
			if st.Tasks != want {
				t.Errorf("%s at %d iterations: tasks = %d, want %d", name, it, st.Tasks, want)
			}
			// Flops must track the mutated iteration count, proving the
			// kernel configuration was applied to the reused plan.
			if wantFlops := mkGraph(it).Kernel.FlopsPerTask() * float64(want); st.Flops != wantFlops {
				t.Errorf("%s at %d iterations: flops = %v, want %v", name, it, st.Flops, wantFlops)
			}
		}
	}
}

// A family that varies the DAG shape with the iteration count must
// fall back to per-point rebuilds on engine-backed backends instead of
// silently measuring the frozen template shape.
func TestBackendSweepShapeChangeFallsBack(t *testing.T) {
	rt, err := runtime.New("taskpool")
	if err != nil {
		t.Fatal(err)
	}
	sweep, done := BackendSweep(rt, func(iterations int64) *core.Graph {
		return core.MustNew(core.Params{
			Timesteps: int(4 + iterations), MaxWidth: 4, Dependence: core.Stencil1D,
			Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: iterations},
		})
	})
	defer done()
	for _, it := range []int64{8, 2} {
		st, err := sweep(it)
		if err != nil {
			t.Fatalf("sweep at %d iterations: %v", it, err)
		}
		if want := int64(4+it) * 4; st.Tasks != want {
			t.Errorf("at %d iterations: tasks = %d, want %d (shape must track the family)", it, st.Tasks, want)
		}
	}
}
