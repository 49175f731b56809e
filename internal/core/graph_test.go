package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"taskbench/internal/kernels"
)

func simpleGraph(t *testing.T, dep DependenceType, width, steps int) *Graph {
	t.Helper()
	p := Params{
		Timesteps:  steps,
		MaxWidth:   width,
		Dependence: dep,
		Kernel:     kernels.Config{Type: kernels.Empty},
	}
	switch dep {
	case Nearest, Spread, RandomNearest:
		p.Radix = 5
	}
	g, err := New(p)
	if err != nil {
		t.Fatalf("New(%v): %v", dep, err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	base := Params{Timesteps: 4, MaxWidth: 4}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero timesteps", func(p *Params) { p.Timesteps = 0 }},
		{"negative width", func(p *Params) { p.MaxWidth = -1 }},
		{"fft non-pow2", func(p *Params) { p.Dependence = FFT; p.MaxWidth = 6 }},
		{"tree non-pow2", func(p *Params) { p.Dependence = Tree; p.MaxWidth = 12 }},
		{"radix too large", func(p *Params) { p.Dependence = Nearest; p.Radix = 5 }},
		{"negative radix", func(p *Params) { p.Radix = -1 }},
		{"spread radix zero", func(p *Params) { p.Dependence = Spread }},
		{"bad fraction", func(p *Params) { p.Dependence = RandomNearest; p.Radix = 2; p.Fraction = 1.5 }},
		{"NaN fraction", func(p *Params) { p.Dependence = RandomNearest; p.Radix = 2; p.Fraction = math.NaN() }},
		{"NaN fault rate", func(p *Params) { p.FaultRate = math.NaN() }},
		{"negative scratch", func(p *Params) { p.ScratchBytes = -1 }},
		{"negative period", func(p *Params) { p.Period = -2 }},
		{"bad kernel", func(p *Params) { p.Kernel.Iterations = -1 }},
		{"bad dependence", func(p *Params) { p.Dependence = DependenceType(99) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mutate(&p)
			if _, err := New(p); err == nil {
				t.Errorf("New accepted invalid params %+v", p)
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	g := MustNew(Params{Timesteps: 2, MaxWidth: 2})
	if g.OutputBytes != PayloadHeaderSize {
		t.Errorf("OutputBytes default = %d, want %d", g.OutputBytes, PayloadHeaderSize)
	}
	if g.Period != 3 {
		t.Errorf("Period default = %d, want 3", g.Period)
	}
	if g.Fraction != 0.25 {
		t.Errorf("Fraction default = %v, want 0.25", g.Fraction)
	}
}

// TestTable2DependenceRelations checks the exact relations of paper
// Table 2 for interior points.
func TestTable2DependenceRelations(t *testing.T) {
	const w = 16
	i := 8 // interior point

	trivial := simpleGraph(t, Trivial, w, 4)
	if got := trivial.Dependencies(0, i); got.Count() != 0 {
		t.Errorf("trivial deps = %v, want empty", got)
	}

	stencil := simpleGraph(t, Stencil1D, w, 4)
	if got := stencil.Dependencies(0, i).Points(); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Errorf("stencil deps = %v, want [7 8 9]", got)
	}

	sweep := simpleGraph(t, Dom, w, 4)
	if got := sweep.Dependencies(0, i).Points(); !reflect.DeepEqual(got, []int{7, 8}) {
		t.Errorf("sweep deps = %v, want [7 8]", got)
	}

	// FFT at timestep t uses distance 2^(t-1): {i, i-2^t, i+2^t} in the
	// paper's zero-based butterfly indexing.
	fft := simpleGraph(t, FFT, w, 8)
	wantFFT := map[int][]int{
		1: {7, 8, 9},  // distance 1
		2: {6, 8, 10}, // distance 2
		3: {4, 8, 12}, // distance 4
		4: {0, 8},     // distance 8 (i+8 out of range)
		5: {7, 8, 9},  // wraps back to distance 1
	}
	for ts, want := range wantFFT {
		got := fft.Dependencies(fft.DependenceSetAt(ts), i).Points()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fft deps at t=%d = %v, want %v", ts, got, want)
		}
	}

	all := simpleGraph(t, AllToAll, w, 4)
	if got := all.Dependencies(0, i); got.Count() != w {
		t.Errorf("all_to_all deps count = %d, want %d", got.Count(), w)
	}
}

func TestNearestMatchesStencilAtRadix3(t *testing.T) {
	const w = 32
	stencil := simpleGraph(t, Stencil1D, w, 4)
	nearest := MustNew(Params{Timesteps: 4, MaxWidth: w, Dependence: Nearest, Radix: 3})
	for i := 0; i < w; i++ {
		s := stencil.Dependencies(0, i).Points()
		n := nearest.Dependencies(0, i).Points()
		if !reflect.DeepEqual(s, n) {
			t.Errorf("point %d: nearest(3) = %v, stencil = %v", i, n, s)
		}
	}
}

func TestNearestRadixZeroIsTrivial(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Nearest, Radix: 0})
	for i := 0; i < 8; i++ {
		if got := g.Dependencies(0, i); got.Count() != 0 {
			t.Errorf("nearest(0) deps at %d = %v, want empty", i, got)
		}
	}
}

func TestNearestRadixCounts(t *testing.T) {
	const w = 64
	for radix := 0; radix <= 9; radix++ {
		g := MustNew(Params{Timesteps: 4, MaxWidth: w, Dependence: Nearest, Radix: radix})
		// Interior points see exactly radix dependencies.
		if got := g.Dependencies(0, w/2).Count(); got != radix {
			t.Errorf("radix %d: interior deps = %d, want %d", radix, got, radix)
		}
	}
}

func TestStencilPeriodicWraps(t *testing.T) {
	const w = 8
	g := simpleGraph(t, Stencil1DPeriodic, w, 4)
	if got := g.Dependencies(0, 0).Points(); !reflect.DeepEqual(got, []int{0, 1, 7}) {
		t.Errorf("periodic deps at 0 = %v, want [0 1 7]", got)
	}
	if got := g.Dependencies(0, w-1).Points(); !reflect.DeepEqual(got, []int{0, 6, 7}) {
		t.Errorf("periodic deps at %d = %v, want [0 6 7]", w-1, got)
	}
	if got := g.Dependencies(0, 3).Points(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("periodic deps at 3 = %v, want [2 3 4]", got)
	}
}

func TestTreeWidthDoubles(t *testing.T) {
	g := simpleGraph(t, Tree, 16, 10)
	want := []int{1, 2, 4, 8, 16, 16, 16, 16, 16, 16}
	for ts, w := range want {
		if got := g.WidthAtTimestep(ts); got != w {
			t.Errorf("tree width at t=%d = %d, want %d", ts, got, w)
		}
	}
	if got := g.TotalTasks(); got != 1+2+4+8+16*6 {
		t.Errorf("tree total tasks = %d, want %d", got, 1+2+4+8+16*6)
	}
}

func TestTreeFanOutParents(t *testing.T) {
	g := simpleGraph(t, Tree, 16, 12)
	// During fan-out, task (t, i) depends on its parent i/2.
	for ts := 1; ts <= 4; ts++ {
		for i := 0; i < g.WidthAtTimestep(ts); i++ {
			got := g.DependenciesForPoint(ts, i).Points()
			if !reflect.DeepEqual(got, []int{i / 2}) {
				t.Errorf("tree deps at (t=%d, i=%d) = %v, want [%d]", ts, i, got, i/2)
			}
		}
	}
	// After fan-out, butterfly pairs.
	for ts := 5; ts < 12; ts++ {
		for i := 0; i < 16; i++ {
			got := g.DependenciesForPoint(ts, i).Points()
			if len(got) != 2 || !contains(got, i) {
				t.Errorf("tree butterfly deps at (t=%d, i=%d) = %v, want self + partner", ts, i, got)
			}
		}
	}
}

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}

func TestSpreadDeps(t *testing.T) {
	const w, radix = 20, 5
	g := MustNew(Params{Timesteps: 6, MaxWidth: w, Dependence: Spread, Radix: radix})
	for dset := 0; dset < g.MaxDependenceSets(); dset++ {
		for i := 0; i < w; i++ {
			deps := g.Dependencies(dset, i)
			if deps.Count() != radix {
				t.Fatalf("spread deps count at dset=%d i=%d = %d, want %d", dset, i, deps.Count(), radix)
			}
			// The spread must cover a range much wider than nearest:
			// max - min >= (radix-1)*stride.
			pts := deps.Points()
			if span := pts[len(pts)-1] - pts[0]; span < (radix-1)*(w/radix)-1 {
				t.Errorf("spread at dset=%d i=%d spans only %d columns: %v", dset, i, span, pts)
			}
		}
	}
	// Different dependence sets shift the relation.
	if reflect.DeepEqual(g.Dependencies(0, 0).Points(), g.Dependencies(1, 0).Points()) {
		t.Error("spread dsets 0 and 1 are identical, want shifted")
	}
}

func TestRandomNearestDeterministicAndBounded(t *testing.T) {
	g := MustNew(Params{Timesteps: 6, MaxWidth: 32, Dependence: RandomNearest,
		Radix: 7, Fraction: 0.5, Seed: 42})
	h := MustNew(Params{Timesteps: 6, MaxWidth: 32, Dependence: RandomNearest,
		Radix: 7, Fraction: 0.5, Seed: 42})
	for dset := 0; dset < g.MaxDependenceSets(); dset++ {
		for i := 0; i < 32; i++ {
			a := g.Dependencies(dset, i)
			b := h.Dependencies(dset, i)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("random_nearest not deterministic at dset=%d i=%d: %v vs %v", dset, i, a, b)
			}
			if a.Count() > 7 {
				t.Errorf("random_nearest deps %d > radix 7", a.Count())
			}
			window := g.nearestWindow(i)
			a.ForEach(func(j int) {
				if !window.Contains(j) {
					t.Errorf("random_nearest dep %d outside nearest window %v", j, window)
				}
			})
		}
	}
}

func TestRandomNearestFractionExtremes(t *testing.T) {
	full := MustNew(Params{Timesteps: 2, MaxWidth: 16, Dependence: RandomNearest,
		Radix: 5, Fraction: 1.0})
	if got := full.Dependencies(0, 8).Count(); got != 5 {
		t.Errorf("fraction 1.0 deps = %d, want 5", got)
	}
}

func TestDependenceSetsCycle(t *testing.T) {
	fft := simpleGraph(t, FFT, 16, 20)
	if got := fft.MaxDependenceSets(); got != 4 {
		t.Errorf("fft sets = %d, want 4", got)
	}
	for ts := 1; ts < 20; ts++ {
		if got := fft.DependenceSetAt(ts); got != (ts-1)%4 {
			t.Errorf("fft dset at t=%d = %d, want %d", ts, got, (ts-1)%4)
		}
	}

	spread := MustNew(Params{Timesteps: 9, MaxWidth: 12, Dependence: Spread, Radix: 3, Period: 4})
	if got := spread.MaxDependenceSets(); got != 4 {
		t.Errorf("spread sets = %d, want 4", got)
	}

	stencil := simpleGraph(t, Stencil1D, 8, 4)
	if got := stencil.MaxDependenceSets(); got != 1 {
		t.Errorf("stencil sets = %d, want 1", got)
	}
}

func TestContainsPoint(t *testing.T) {
	g := simpleGraph(t, Tree, 8, 6)
	cases := []struct {
		t, i int
		want bool
	}{
		{0, 0, true}, {0, 1, false},
		{1, 1, true}, {1, 2, false},
		{3, 7, true}, {3, 8, false},
		{-1, 0, false}, {6, 0, false},
	}
	for _, c := range cases {
		if got := g.ContainsPoint(c.t, c.i); got != c.want {
			t.Errorf("ContainsPoint(%d, %d) = %v, want %v", c.t, c.i, got, c.want)
		}
	}
}

func TestFirstTimestepHasNoDeps(t *testing.T) {
	for _, dep := range DependenceTypes() {
		g := simpleGraph(t, dep, 8, 4)
		for i := 0; i < g.WidthAtTimestep(0); i++ {
			if got := g.DependenciesForPoint(0, i); got.Count() != 0 {
				t.Errorf("%v: deps at t=0 = %v, want empty", dep, got)
			}
		}
	}
}

// forwardReverseConsistent checks j ∈ deps(dset, i) ⟺ i ∈ rev(dset, j).
func forwardReverseConsistent(g *Graph) bool {
	for dset := 0; dset < g.MaxDependenceSets(); dset++ {
		fwd := make(map[[2]int]bool)
		for i := 0; i < g.MaxWidth; i++ {
			g.Dependencies(dset, i).ForEach(func(j int) {
				if j >= 0 && j < g.MaxWidth {
					fwd[[2]int{i, j}] = true
				}
			})
		}
		rev := make(map[[2]int]bool)
		for j := 0; j < g.MaxWidth; j++ {
			g.ReverseDependencies(dset, j).ForEach(func(i int) {
				rev[[2]int{i, j}] = true
			})
		}
		if len(fwd) != len(rev) {
			return false
		}
		for k := range fwd {
			if !rev[k] {
				return false
			}
		}
	}
	return true
}

func TestForwardReverseConsistencyAllPatterns(t *testing.T) {
	for _, dep := range DependenceTypes() {
		g := simpleGraph(t, dep, 16, 8)
		if !forwardReverseConsistent(g) {
			t.Errorf("%v: forward/reverse dependencies inconsistent", dep)
		}
	}
}

// Property-based: random widths/radices keep every invariant.
func TestGraphInvariantsProperty(t *testing.T) {
	f := func(widthRaw, radixRaw, stepsRaw uint8, depRaw uint8, seed uint64) bool {
		deps := DependenceTypes()
		dep := deps[int(depRaw)%len(deps)]
		width := 1 + int(widthRaw)%32
		if dep.RequiresPowerOfTwoWidth() {
			width = 1 << (int(widthRaw) % 6)
		}
		steps := 1 + int(stepsRaw)%12
		radix := int(radixRaw) % (width + 1)
		if (dep == Spread || dep == RandomNearest) && radix == 0 {
			radix = 1
		}
		g, err := New(Params{
			Timesteps: steps, MaxWidth: width, Dependence: dep,
			Radix: radix, Seed: seed,
		})
		if err != nil {
			return false
		}
		// Invariant 1: all deps within [0, width).
		for dset := 0; dset < g.MaxDependenceSets(); dset++ {
			for i := 0; i < width; i++ {
				ok := true
				g.Dependencies(dset, i).ForEach(func(j int) {
					if j < 0 || j >= width {
						ok = false
					}
				})
				if !ok {
					return false
				}
			}
		}
		// Invariant 2: forward/reverse consistency.
		if !forwardReverseConsistent(g) {
			return false
		}
		// Invariant 3: clipped deps land in the previous active window.
		for ts := 1; ts < steps; ts++ {
			prevW := g.WidthAtTimestep(ts - 1)
			for i := 0; i < g.WidthAtTimestep(ts); i++ {
				ok := true
				g.DependenciesForPoint(ts, i).ForEach(func(j int) {
					if j < 0 || j >= prevW {
						ok = false
					}
				})
				if !ok {
					return false
				}
			}
		}
		// Invariant 4: total dependencies equals sum of reverse edges.
		var fwdTotal, revTotal int64
		for ts := 1; ts < steps; ts++ {
			for i := 0; i < g.WidthAtTimestep(ts); i++ {
				fwdTotal += int64(g.DependenciesForPoint(ts, i).Count())
			}
		}
		for ts := 0; ts < steps-1; ts++ {
			for i := 0; i < g.WidthAtTimestep(ts); i++ {
				revTotal += int64(g.ReverseDependenciesForPoint(ts, i).Count())
			}
		}
		return fwdTotal == revTotal && fwdTotal == g.TotalDependencies()
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTaskMultiplierDeterministicUniform(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 4, Seed: 7})
	h := MustNew(Params{Timesteps: 4, MaxWidth: 4, Seed: 7})
	var sum float64
	const n = 10000
	for k := 0; k < n; k++ {
		v := g.TaskMultiplier(k%100, k/100)
		if v != h.TaskMultiplier(k%100, k/100) {
			t.Fatal("TaskMultiplier not deterministic")
		}
		if v < 0 || v >= 1 {
			t.Fatalf("TaskMultiplier out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("TaskMultiplier mean = %v, want ≈ 0.5", mean)
	}
	// Different seeds give different workloads.
	other := MustNew(Params{Timesteps: 4, MaxWidth: 4, Seed: 8})
	if g.TaskMultiplier(1, 2) == other.TaskMultiplier(1, 2) &&
		g.TaskMultiplier(2, 3) == other.TaskMultiplier(2, 3) {
		t.Error("different seeds produced identical multipliers")
	}
}

func TestTotalTasksAndDependenciesStencil(t *testing.T) {
	g := simpleGraph(t, Stencil1D, 8, 5)
	if got := g.TotalTasks(); got != 40 {
		t.Errorf("TotalTasks = %d, want 40", got)
	}
	// Each non-first timestep: interior 6 points × 3 deps + 2 edges × 2 deps = 22.
	if got := g.TotalDependencies(); got != 4*22 {
		t.Errorf("TotalDependencies = %d, want %d", got, 4*22)
	}
}

func TestDependenceTypeStringsRoundTrip(t *testing.T) {
	for _, d := range DependenceTypes() {
		back, err := ParseDependenceType(d.String())
		if err != nil || back != d {
			t.Errorf("round trip of %v failed: %v, %v", d, back, err)
		}
	}
	if _, err := ParseDependenceType("bogus"); err == nil {
		t.Error("ParseDependenceType accepted bogus name")
	}
}

func TestPersistentImbalanceMultiplier(t *testing.T) {
	g := MustNew(Params{Timesteps: 8, MaxWidth: 8, Seed: 3,
		Kernel: kernels.Config{Type: kernels.LoadImbalance, Iterations: 10,
			ImbalanceFactor: 1, PersistentImbalance: true}})
	// Constant across timesteps.
	for i := 0; i < 8; i++ {
		base := g.TaskMultiplier(0, i)
		for ts := 1; ts < 8; ts++ {
			if g.TaskMultiplier(ts, i) != base {
				t.Fatalf("persistent multiplier varies with t at column %d", i)
			}
		}
	}
	// Still varies across columns.
	if g.TaskMultiplier(0, 0) == g.TaskMultiplier(0, 1) &&
		g.TaskMultiplier(0, 1) == g.TaskMultiplier(0, 2) {
		t.Error("persistent multipliers identical across columns")
	}
	// Non-persistent varies with t.
	np := MustNew(Params{Timesteps: 8, MaxWidth: 8, Seed: 3,
		Kernel: kernels.Config{Type: kernels.LoadImbalance, Iterations: 10, ImbalanceFactor: 1}})
	if np.TaskMultiplier(0, 0) == np.TaskMultiplier(1, 0) {
		t.Error("non-persistent multiplier constant across timesteps")
	}
}
