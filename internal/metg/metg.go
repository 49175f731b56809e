// Package metg implements the paper's central metric: minimum
// effective task granularity (§4). METG(x%) for a workload is the
// smallest average task granularity — wall time × cores ÷ tasks — at
// which the workload still achieves at least x% of the machine's peak
// performance. The efficiency constraint is what distinguishes METG
// from raw tasks-per-second limit studies: it only counts
// configurations that do useful work at an acceptable rate.
//
// The measurement procedure mirrors Figures 2 and 3: hold the machine
// configuration fixed, repeatedly shrink the problem size (kernel
// iteration count), replot the results as efficiency vs. task
// granularity, and intersect the curve with the efficiency threshold.
package metg

import (
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/stats"
)

// Runner executes the workload at a given per-task iteration count and
// reports run statistics. Implementations wrap either a real runtime
// backend or the cluster simulator.
type Runner func(iterations int64) core.RunStats

// BackendSweep returns the per-point measurement function for a real
// runtime backend over a graph family parameterized by iteration
// count. A sweep measures the same task graph at every point of the
// curve — only the per-task kernel size changes — so every backend but
// serial reuses one session: shared-memory backends
// (runtime.PolicyBacked) drive an exec.Session whose Plan is built
// once per configuration and Reset per point, and rank-based backends
// (runtime.RankBacked) drive an exec.RankSession whose RankPlan —
// spans, cross-rank edge lists, fabric wiring, and for tcp the
// connection mesh — is likewise paid once. serial, and any family that
// varies the DAG shape with the iteration count, rebuild the app at
// each point.
//
// The second return value releases the reused session's resources
// (for tcp, the live connection mesh); call it when the sweep is
// done. It is always non-nil and safe to call more than once.
func BackendSweep(rt runtime.Runtime, mkGraph func(iterations int64) *core.Graph) (run func(iterations int64) (core.RunStats, error), close func()) {
	type session interface {
		Run() (core.RunStats, error)
	}
	var open func(app *core.App) (session, error)
	switch b := rt.(type) {
	case runtime.PolicyBacked:
		open = func(app *core.App) (session, error) { return exec.NewSession(app, b.Policy()), nil }
	case runtime.RankBacked:
		open = func(app *core.App) (session, error) { return exec.NewRankSession(app, b.RankPolicy()) }
	default:
		return func(iterations int64) (core.RunStats, error) {
			return rt.Run(core.NewApp(mkGraph(iterations)))
		}, func() {}
	}
	template := mkGraph(1)
	var sess session // built lazily on the first same-shape point
	run = func(iterations int64) (core.RunStats, error) {
		fresh := mkGraph(iterations)
		if !sameShape(fresh, template) {
			// The family varies the DAG shape with the iteration
			// count, so a prebuilt plan does not apply; fall back
			// to a correct per-point rebuild.
			return rt.Run(core.NewApp(fresh))
		}
		if sess == nil {
			s, err := open(core.NewApp(template))
			if err != nil {
				return core.RunStats{}, err
			}
			sess = s
		}
		template.Kernel = fresh.Kernel
		return sess.Run()
	}
	close = func() {
		if closer, ok := sess.(interface{ Close() }); ok {
			closer.Close()
		}
		sess = nil
	}
	return run, close
}

// sameShape reports whether two graphs of a sweep family differ only
// in their kernel configuration, i.e. share the exact DAG topology a
// reusable plan was built for.
func sameShape(a, b *core.Graph) bool {
	pa, pb := a.Params, b.Params
	pa.Kernel, pb.Kernel = kernels.Config{}, kernels.Config{}
	return pa == pb
}

// Point is one measurement of the efficiency-vs-granularity curve.
type Point struct {
	// Iterations is the per-task kernel iteration count.
	Iterations int64
	// Granularity is wall time × cores ÷ tasks.
	Granularity time.Duration
	// Efficiency is achieved ÷ peak throughput (0..1).
	Efficiency float64
	// Stats is the full run record.
	Stats core.RunStats
}

// Curve measures the workload at each iteration count (pass them in
// descending order for the paper's shrinking-problem-size procedure)
// and converts the results into (granularity, efficiency) points.
func Curve(run Runner, iterations []int64, peakFlops, peakBytes float64) []Point {
	points := make([]Point, 0, len(iterations))
	for _, it := range iterations {
		st := run(it)
		points = append(points, Point{
			Iterations:  it,
			Granularity: st.TaskGranularity(),
			Efficiency:  st.Efficiency(peakFlops, peakBytes),
			Stats:       st,
		})
	}
	return points
}

// Kind classifies how an METG value was obtained, distinguishing a
// true threshold crossing from the conservative bound reported when
// the measured curve never dips below the threshold.
type Kind int

const (
	// NotReached: the curve never attains the threshold; there is no
	// METG value.
	NotReached Kind = iota
	// UpperBound: every measured point sits at or above the threshold,
	// so the smallest observed granularity only bounds METG from above
	// (the paper's "≤" rows for systems whose asymptote lies above
	// 50%).
	UpperBound
	// Measured: the curve crosses the threshold between two measured
	// points and the value is the log-interpolated crossing.
	Measured
)

// Reached reports whether the curve attains the threshold at all,
// i.e. whether a value (measured or bound) exists.
func (k Kind) Reached() bool { return k != NotReached }

func (k Kind) String() string {
	switch k {
	case Measured:
		return "measured"
	case UpperBound:
		return "upper bound"
	default:
		return "not reached"
	}
}

// METG extracts the minimum effective task granularity at the given
// efficiency threshold from a curve measured with shrinking problem
// sizes. It returns the granularity at which the curve crosses the
// threshold, log-interpolated between the bracketing points — the red
// dashed intersection of Figure 3. A noisy curve may cross the
// threshold more than once; every adjacent bracket is scanned and the
// minimum crossing wins, since METG is the smallest granularity at
// which the efficiency constraint still holds.
//
// The Kind disambiguates the no-crossing cases: NotReached means the
// curve never attains the threshold (no value); UpperBound means every
// point is above the threshold, so the smallest granularity observed
// is only a conservative upper bound on METG, matching how the paper
// reports systems whose asymptote lies above 50%.
func METG(points []Point, threshold float64) (time.Duration, Kind) {
	best := time.Duration(0)
	found := false
	for _, p := range points {
		if p.Efficiency >= threshold && p.Granularity > 0 {
			if !found || p.Granularity < best {
				best = p.Granularity
			}
			found = true
		}
	}
	if !found {
		return 0, NotReached
	}
	kind := UpperBound
	// Refine with every bracketing pair. Taking only the first bracket
	// would silently ignore a later crossing at smaller granularity on
	// a non-monotone curve.
	for k := 0; k+1 < len(points); k++ {
		a, b := points[k], points[k+1]
		if a.Efficiency >= threshold && b.Efficiency < threshold &&
			a.Granularity > 0 && b.Granularity > 0 {
			x := stats.InterpLogX(
				float64(a.Granularity), a.Efficiency,
				float64(b.Granularity), b.Efficiency,
				threshold)
			cross := time.Duration(x)
			if cross < best {
				best = cross
			}
			kind = Measured
		}
	}
	return best, kind
}

// Search runs the complete METG procedure: sweep iteration counts
// geometrically downward from startIters until efficiency drops well
// below the threshold (or the iteration count reaches 1), then extract
// METG. It returns the metg value, the measured curve, and the Kind of
// the value (measured crossing, upper bound, or not reached).
func Search(run Runner, startIters int64, peakFlops, peakBytes float64, threshold float64, perDoubling int) (time.Duration, []Point, Kind) {
	iters := stats.GeomIters(startIters, 1, perDoubling)
	var points []Point
	for _, it := range iters {
		st := run(it)
		p := Point{
			Iterations:  it,
			Granularity: st.TaskGranularity(),
			Efficiency:  st.Efficiency(peakFlops, peakBytes),
			Stats:       st,
		}
		points = append(points, p)
		// Stop once the curve is clearly below the threshold: the
		// crossing is bracketed and smaller problems only waste time.
		if p.Efficiency < threshold*0.5 && len(points) >= 2 {
			break
		}
	}
	m, kind := METG(points, threshold)
	return m, points, kind
}
