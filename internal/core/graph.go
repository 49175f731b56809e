package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"taskbench/internal/kernels"
)

// Params describes one task graph: the iteration space, the dependence
// relation, the kernel each task runs, and the payload sizes. It is the
// Go rendering of the paper's Table 1.
type Params struct {
	// GraphID distinguishes graphs when several execute concurrently.
	GraphID int

	// Timesteps is the height of the graph (number of timesteps).
	Timesteps int

	// MaxWidth is the width of the graph (degree of parallelism).
	MaxWidth int

	// Dependence selects the dependence relation.
	Dependence DependenceType

	// Radix is the number of dependencies per task for the Nearest,
	// Spread and RandomNearest patterns.
	Radix int

	// Period is the number of distinct dependence sets cycled through
	// by the Spread and RandomNearest patterns (default 3).
	Period int

	// Fraction is the probability that a candidate dependency of the
	// RandomNearest pattern is kept (default 0.25).
	Fraction float64

	// Seed feeds the deterministic hash behind load imbalance and
	// random dependencies, so all runtimes see identical workloads.
	Seed uint64

	// Kernel configures the computation each task performs.
	Kernel kernels.Config

	// OutputBytes is the size of each task's output payload, and thus
	// the number of bytes carried by every dependence edge. It is at
	// least PayloadHeaderSize so outputs can be validated.
	OutputBytes int

	// ScratchBytes is the size of the per-column persistent working
	// set used by the memory-bound kernel.
	ScratchBytes int64

	// FaultRate injects payload corruption for testing the validation
	// machinery end-to-end: each task's output has this probability
	// (decided by the deterministic per-task hash) of carrying one
	// flipped fill byte. Consumers must detect the corruption and the
	// runtime must surface a *ValidationError. Zero in normal runs.
	FaultRate float64
}

// Graph is a validated task graph. Construct with New; Graph values
// must not be copied (they hold internal caches).
type Graph struct {
	Params

	steadyWidthLog int // log2(MaxWidth), for Tree/FFT

	revOnce  sync.Once
	revTable [][]IntervalList // [dset][point] -> reverse deps

	depOnce  sync.Once
	depTable atomic.Pointer[DepTable] // compiled relation; see deptable.go

	totalDepsOnce sync.Once
	totalDeps     int64
}

// New validates the parameters and builds a Graph.
func New(p Params) (*Graph, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	return &Graph{Params: p, steadyWidthLog: log2Floor(p.MaxWidth)}, nil
}

// Normalize validates the parameters and returns them with their
// defaults filled in: the Params a Graph built by New carries. It builds
// nothing, so a caller that only checks a configuration allocates
// nothing unless it is invalid.
func (p Params) Normalize() (Params, error) {
	if p.Timesteps <= 0 {
		return p, errors.New("core: graph must have at least one timestep")
	}
	if p.MaxWidth <= 0 {
		return p, errors.New("core: graph must have positive width")
	}
	if p.Dependence.RequiresPowerOfTwoWidth() && !isPowerOfTwo(p.MaxWidth) {
		return p, fmt.Errorf("core: %s pattern requires power-of-two width, got %d",
			p.Dependence, p.MaxWidth)
	}
	if _, ok := dependenceNames[p.Dependence]; !ok {
		return p, fmt.Errorf("core: invalid dependence type %d", int(p.Dependence))
	}
	if p.Radix < 0 || p.Radix > p.MaxWidth {
		return p, fmt.Errorf("core: radix %d out of range [0, width=%d]", p.Radix, p.MaxWidth)
	}
	switch p.Dependence {
	case Nearest, Spread, RandomNearest:
		if p.Radix == 0 && p.Dependence != Nearest {
			return p, fmt.Errorf("core: %s pattern requires radix > 0", p.Dependence)
		}
	}
	if p.Period == 0 {
		p.Period = 3
	}
	if p.Period < 0 {
		return p, errors.New("core: period must be positive")
	}
	if p.Fraction == 0 {
		p.Fraction = 0.25
	}
	if !(p.Fraction >= 0 && p.Fraction <= 1) { // NaN fails too
		return p, errors.New("core: fraction must be in [0, 1]")
	}
	if p.OutputBytes < PayloadHeaderSize {
		p.OutputBytes = PayloadHeaderSize
	}
	if p.ScratchBytes < 0 {
		return p, errors.New("core: scratch bytes must be non-negative")
	}
	if !(p.FaultRate >= 0 && p.FaultRate <= 1) {
		return p, errors.New("core: fault rate must be in [0, 1]")
	}
	if p.FaultRate > 0 && p.OutputBytes <= PayloadHeaderSize {
		// Corruption flips a fill byte, so there must be one.
		p.OutputBytes = PayloadHeaderSize + 8
	}
	return p, p.Kernel.Validate()
}

// MustNew is New for programmatic graphs known to be valid; it panics
// on error. Used heavily by examples and tests.
func MustNew(p Params) *Graph {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

// OffsetAtTimestep returns the first active column at timestep t. All
// current patterns keep the window anchored at zero; the method exists
// for API fidelity with the reference core library.
func (g *Graph) OffsetAtTimestep(t int) int {
	if t < 0 || t >= g.Timesteps {
		return 0
	}
	return 0
}

// WidthAtTimestep returns the number of active columns at timestep t.
// The Tree pattern doubles the width each timestep during fan-out;
// every other pattern is full width throughout.
func (g *Graph) WidthAtTimestep(t int) int {
	if t < 0 || t >= g.Timesteps {
		return 0
	}
	if g.Dependence == Tree {
		if t >= g.steadyWidthLog {
			return g.MaxWidth
		}
		return 1 << t
	}
	return g.MaxWidth
}

// ContainsPoint reports whether task (t, i) exists in the graph.
func (g *Graph) ContainsPoint(t, i int) bool {
	off := g.OffsetAtTimestep(t)
	return t >= 0 && t < g.Timesteps && i >= off && i < off+g.WidthAtTimestep(t)
}

// TotalTasks returns the number of tasks in the graph.
func (g *Graph) TotalTasks() int64 {
	var n int64
	for t := 0; t < g.Timesteps; t++ {
		n += int64(g.WidthAtTimestep(t))
	}
	return n
}

// MaxDependenceSets returns the number of distinct dependence relations
// the graph cycles through. Patterns whose relation is independent of
// the timestep have a single set.
func (g *Graph) MaxDependenceSets() int {
	switch g.Dependence {
	case FFT:
		if g.steadyWidthLog == 0 {
			return 1
		}
		return g.steadyWidthLog
	case Tree:
		return 1 + g.steadyWidthLog
	case Spread, RandomNearest:
		return g.Period
	default:
		return 1
	}
}

// DependenceSetAt returns the dependence set in effect for tasks at
// timestep t (i.e. the relation linking timestep t-1 to t).
func (g *Graph) DependenceSetAt(t int) int {
	switch g.Dependence {
	case FFT:
		if t <= 0 || g.steadyWidthLog == 0 {
			return 0
		}
		return (t - 1) % g.steadyWidthLog
	case Tree:
		if t <= g.steadyWidthLog {
			return 0
		}
		if g.steadyWidthLog == 0 {
			return 0
		}
		return 1 + (t-g.steadyWidthLog-1)%g.steadyWidthLog
	case Spread, RandomNearest:
		if t < 0 {
			return 0
		}
		return t % g.Period
	default:
		return 0
	}
}

// Dependencies returns the dependence relation for dependence set dset
// at column i: the columns of the previous timestep that a task at
// column i consumes. The result is clamped to [0, MaxWidth) but not to
// the producing timestep's active window; use DependenciesForPoint for
// a fully clipped answer.
func (g *Graph) Dependencies(dset, i int) IntervalList {
	w := g.MaxWidth
	switch g.Dependence {
	case Trivial:
		return nil
	case NoComm:
		return IntervalList{{i, i}}
	case Stencil1D:
		return IntervalList{{max(0, i-1), min(w-1, i+1)}}
	case Stencil1DPeriodic:
		if w <= 2 {
			return IntervalList{{0, w - 1}}
		}
		switch i {
		case 0:
			return IntervalList{{0, 1}, {w - 1, w - 1}}
		case w - 1:
			return IntervalList{{0, 0}, {w - 2, w - 1}}
		default:
			return IntervalList{{i - 1, i + 1}}
		}
	case Dom:
		return IntervalList{{max(0, i-1), i}}
	case Tree:
		if dset == 0 {
			return IntervalList{{i / 2, i / 2}}
		}
		k := dset - 1
		j := i ^ (1 << k)
		if j < 0 || j >= w {
			return IntervalList{{i, i}}
		}
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi == lo+1 {
			return IntervalList{{lo, hi}}
		}
		return IntervalList{{lo, lo}, {hi, hi}}
	case FFT:
		d := 1 << dset
		pts := make([]int, 0, 3)
		if i-d >= 0 {
			pts = append(pts, i-d)
		}
		pts = append(pts, i)
		if i+d < w {
			pts = append(pts, i+d)
		}
		return intervalsFromSorted(pts)
	case AllToAll:
		return IntervalList{{0, w - 1}}
	case Nearest:
		return g.nearestWindow(i)
	case Spread:
		return g.spreadDeps(dset, i)
	case RandomNearest:
		return g.randomNearestDeps(dset, i)
	default:
		panic(fmt.Sprintf("core: invalid dependence type %d", int(g.Dependence)))
	}
}

// nearestWindow returns the Radix columns nearest to i (preferring the
// column itself, then alternating left/right), clamped to the graph.
func (g *Graph) nearestWindow(i int) IntervalList {
	if g.Radix == 0 {
		return nil
	}
	// Offsets in nearness order 0, -1, +1, -2, +2, ... cover a window
	// [i-left, i+right] with left = radix/2, right = (radix-1)/2.
	lo := i - g.Radix/2
	hi := i + (g.Radix-1)/2
	lo = max(lo, 0)
	hi = min(hi, g.MaxWidth-1)
	if lo > hi {
		return nil
	}
	return IntervalList{{lo, hi}}
}

// spreadDeps spreads Radix dependencies as widely as possible across
// the width, rotating by dset each timestep so successive steps
// exercise different links (paper Figure 9c).
func (g *Graph) spreadDeps(dset, i int) IntervalList {
	stride := g.MaxWidth / g.Radix
	if stride < 1 {
		stride = 1
	}
	seen := make(map[int]bool, g.Radix)
	pts := make([]int, 0, g.Radix)
	for j := 0; j < g.Radix; j++ {
		p := (i + dset + j*stride) % g.MaxWidth
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	sortInts(pts)
	return intervalsFromSorted(pts)
}

// randomNearestDeps keeps each column of the nearest window with
// probability Fraction, decided by a hash of (seed, dset, point,
// candidate) so that producers and consumers agree without coordination.
func (g *Graph) randomNearestDeps(dset, i int) IntervalList {
	window := g.nearestWindow(i)
	pts := make([]int, 0, g.Radix)
	window.ForEach(func(j int) {
		h := hashPoint(g.Seed^uint64(g.GraphID)<<32, int64(dset), int64(i), int64(j))
		if uniformFloat(h) < g.Fraction {
			pts = append(pts, j)
		}
	})
	return intervalsFromSorted(pts)
}

// DependenciesForPoint returns the concrete dependencies of task
// (t, i): the relation for the timestep's dependence set, clipped to
// the active window of timestep t-1. Tasks in the first timestep have
// no dependencies.
func (g *Graph) DependenciesForPoint(t, i int) IntervalList {
	if t <= 0 || !g.ContainsPoint(t, i) {
		return nil
	}
	off := g.OffsetAtTimestep(t - 1)
	w := g.WidthAtTimestep(t - 1)
	deps := g.Dependencies(g.DependenceSetAt(t), i)
	return deps.clip(off, off+w-1)
}

// ReverseDependencies returns, for dependence set dset, the columns of
// the next timestep that consume the output of a task at column i.
func (g *Graph) ReverseDependencies(dset, i int) IntervalList {
	g.buildReverse()
	if dset < 0 || dset >= len(g.revTable) || i < 0 || i >= g.MaxWidth {
		return nil
	}
	return g.revTable[dset][i]
}

// ReverseDependenciesForPoint returns the concrete consumers of task
// (t, i) at timestep t+1, clipped to that timestep's active window.
func (g *Graph) ReverseDependenciesForPoint(t, i int) IntervalList {
	if t+1 >= g.Timesteps || !g.ContainsPoint(t, i) {
		return nil
	}
	off := g.OffsetAtTimestep(t + 1)
	w := g.WidthAtTimestep(t + 1)
	rev := g.ReverseDependencies(g.DependenceSetAt(t+1), i)
	return rev.clip(off, off+w-1)
}

// buildReverse computes the reverse-dependence table by inverting the
// forward relation, guaranteeing the two are exactly consistent for
// every pattern (including hashed random patterns).
func (g *Graph) buildReverse() {
	g.revOnce.Do(func() {
		sets := g.MaxDependenceSets()
		g.revTable = make([][]IntervalList, sets)
		for dset := 0; dset < sets; dset++ {
			consumers := make([][]int, g.MaxWidth)
			for j := 0; j < g.MaxWidth; j++ {
				g.Dependencies(dset, j).ForEach(func(p int) {
					if p >= 0 && p < g.MaxWidth {
						consumers[p] = append(consumers[p], j)
					}
				})
			}
			g.revTable[dset] = make([]IntervalList, g.MaxWidth)
			for i, cs := range consumers {
				sortInts(cs)
				g.revTable[dset][i] = intervalsFromSorted(cs)
			}
		}
	})
}

// TotalDependencies counts every dependence edge in the graph, used by
// reporting and by the simulator's message accounting. The count is
// computed once from the compiled table and memoized: StatsFor calls
// this at every run, and before memoization the O(tasks) walk through
// the allocating per-call path dominated the steady-state allocation
// profile of small-granularity sweeps.
func (g *Graph) TotalDependencies() int64 {
	g.totalDepsOnce.Do(func() {
		var n int64
		for t := 1; t < g.Timesteps; t++ {
			off := g.OffsetAtTimestep(t)
			w := g.WidthAtTimestep(t)
			for i := off; i < off+w; i++ {
				it := g.PointDeps(t, i)
				n += int64(it.Count())
			}
		}
		g.totalDeps = n
	})
	return g.totalDeps
}

// sortInts is insertion sort; dependence lists are tiny (≤ radix).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
