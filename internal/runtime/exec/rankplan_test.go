package exec

import (
	"slices"
	"testing"

	"taskbench/internal/core"
)

// eagerPolicy is a minimal p2p-style rank policy used to exercise the
// engine without importing a backend package (which would cycle).
type eagerPolicy struct{}

func (eagerPolicy) Layout(app *core.App) RankLayout { return FlatLayout(app) }

func (eagerPolicy) Step(rc *RankCtx, t int) {
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		lo, hi := rc.Window(gi, t)
		for i := lo; i < hi; i++ {
			rc.SendOutputs(gi, t, i, rc.Run(gi, t, i))
		}
		rc.Flip(gi)
	}
}

func rankApp(width, steps int) *core.App {
	return core.NewApp(core.MustNew(core.Params{
		Timesteps: steps, MaxWidth: width, Dependence: core.Stencil1D, OutputBytes: 32,
	}))
}

func TestRankPlanSpansCoverWidth(t *testing.T) {
	app := core.NewApp(
		core.MustNew(core.Params{Timesteps: 3, MaxWidth: 7, Dependence: core.Stencil1D}),
		core.MustNew(core.Params{GraphID: 1, Timesteps: 5, MaxWidth: 4, Dependence: core.NoComm}),
	)
	plan := BuildRankPlan(app, 3)
	if plan.MaxSteps != 5 {
		t.Errorf("MaxSteps = %d, want 5", plan.MaxSteps)
	}
	for gi, g := range app.Graphs {
		covered := 0
		for r := 0; r < plan.Ranks; r++ {
			covered += plan.Span(gi, r).Len()
		}
		if covered != g.MaxWidth {
			t.Errorf("graph %d: spans cover %d columns, want %d", gi, covered, g.MaxWidth)
		}
	}
}

// A rank reads and writes payload rows of its own columns only, so that
// is all its Rows are backed for: 2 × span × OutputBytes, with the
// column indexing unchanged.
func TestRankPlanRowsBackOwnSpanOnly(t *testing.T) {
	app := rankApp(7, 4)
	g := app.Graphs[0]
	plan := BuildRankPlan(app, 3)
	for r := 0; r < plan.Ranks; r++ {
		rows, span := plan.Rows(r, 0), plan.Span(0, r)
		if got, want := len(rows.prevFlat)+len(rows.curFlat), 2*span.Len()*g.OutputBytes; got != want {
			t.Errorf("rank %d backs %d B of rows, want %d (2 × %d columns × %d B)",
				r, got, want, span.Len(), g.OutputBytes)
		}
		for i := 0; i < g.MaxWidth; i++ {
			owned := i >= span.Lo && i < span.Hi
			if backed := len(rows.Prev(i)) == g.OutputBytes && len(rows.Cur(i)) == g.OutputBytes; backed != owned {
				t.Errorf("rank %d column %d: backed = %v, owned = %v", r, i, backed, owned)
			}
		}
	}
}

func TestRankPlanEdgesMatchCrossEdges(t *testing.T) {
	app := rankApp(8, 4)
	plan := BuildRankPlan(app, 2)
	want := map[Edge]struct{}{}
	CrossEdges(app.Graphs[0], 2, func(p, c int) { want[Edge{Producer: p, Consumer: c}] = struct{}{} })
	got := plan.Edges(0)
	if len(got) != len(want) {
		t.Fatalf("plan has %d edges, want %d", len(got), len(want))
	}
	for _, e := range got {
		if _, ok := want[e]; !ok {
			t.Errorf("unexpected plan edge %+v", e)
		}
	}
}

func TestRankSessionReuseValidates(t *testing.T) {
	app := rankApp(7, 9) // odd height: rows end a run flipped
	app.Workers = 3
	sess, err := NewRankSession(app, eagerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var first core.RunStats
	for k := 0; k < 3; k++ {
		st, err := sess.Run()
		if err != nil {
			t.Fatalf("reuse run %d: %v", k, err)
		}
		if k == 0 {
			first = st
		} else if st.Tasks != first.Tasks || st.Workers != first.Workers {
			t.Errorf("run %d static stats diverged: %+v vs %+v", k, st, first)
		}
	}
}

func TestRowsRehome(t *testing.T) {
	r := NewRows(2, 4)
	home := r.Cur(0)
	r.Flip()
	if &r.Cur(0)[0] == &home[0] {
		t.Fatal("Flip did not swap buffers")
	}
	r.Rehome()
	if &r.Cur(0)[0] != &home[0] {
		t.Error("Rehome after one flip did not restore orientation")
	}
	r.Flip()
	r.Flip()
	r.Rehome()
	if &r.Cur(0)[0] != &home[0] {
		t.Error("Rehome after two flips changed orientation")
	}
}

func TestRunRanksEmptyApp(t *testing.T) {
	st, err := RunRanks(core.NewApp(), eagerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 0 {
		t.Errorf("Tasks = %d, want 0", st.Tasks)
	}
}

// routeGraphs mirrors core's deptable_test matrix: every dependence
// pattern over power-of-two and ragged widths, several radixes, periods
// and seeds. Fourteen timesteps take the tree pattern through its
// fan-out and every butterfly set.
func routeGraphs(t *testing.T) []*core.Graph {
	t.Helper()
	var graphs []*core.Graph
	for _, dep := range core.DependenceTypes() {
		widths := []int{1, 2, 3, 5, 8, 16, 33}
		if dep.RequiresPowerOfTwoWidth() {
			widths = []int{1, 2, 8, 16, 64}
		}
		for _, w := range widths {
			radixes := []int{0}
			switch dep {
			case core.Nearest:
				radixes = []int{0, 1, 3, 5, w}
			case core.Spread, core.RandomNearest:
				radixes = []int{1, 3, 5, w}
			}
			for _, radix := range radixes {
				if radix > w {
					continue
				}
				periods := []int{0}
				if dep == core.Spread || dep == core.RandomNearest {
					periods = []int{1, 3, 5}
				}
				for _, period := range periods {
					for _, seed := range []uint64{0, 42} {
						g, err := core.New(core.Params{
							Timesteps: 14, MaxWidth: w, Dependence: dep,
							Radix: radix, Period: period, Fraction: 0.4, Seed: seed,
						})
						if err != nil {
							t.Fatalf("New(%s, w=%d, radix=%d, period=%d): %v", dep, w, radix, period, err)
						}
						graphs = append(graphs, g)
					}
				}
			}
		}
	}
	return graphs
}

// wantRoutes derives task (t, i)'s routes the slow way: the dependence
// iterators filtered by OwnerOf, edge ids by searching the edge list.
func wantRoutes(g *core.Graph, edges []Edge, ranks, t, i int) (gather, sends []route) {
	w := g.MaxWidth
	edgeID := func(producer, consumer int) int32 {
		if OwnerOf(producer, w, ranks) == OwnerOf(consumer, w, ranks) {
			return localEdge
		}
		for id, e := range edges {
			if e == (Edge{Producer: producer, Consumer: consumer}) {
				return int32(id)
			}
		}
		return -2 // a cross-rank dependence with no edge: never equal to a compiled route
	}
	deps := g.PointDeps(t, i)
	for dep, ok := deps.Next(); ok; dep, ok = deps.Next() {
		gather = append(gather, route{Col: int32(dep), Edge: edgeID(dep, i)})
	}
	cons := g.PointConsumers(t, i)
	for c, ok := cons.Next(); ok; c, ok = cons.Next() {
		if id := edgeID(i, c); id != localEdge {
			sends = append(sends, route{Col: int32(c), Edge: id})
		}
	}
	return gather, sends
}

// TestCompiledRoutesMatchDependenceQueries is the routes' property
// test: at every (t, i), including points outside the active window,
// the compiled gather and send lists equal PointDeps and
// PointConsumers filtered by ownership, in the same order.
func TestCompiledRoutesMatchDependenceQueries(t *testing.T) {
	for _, g := range routeGraphs(t) {
		for ranks := 1; ranks <= 4; ranks++ {
			plan := BuildRankPlan(core.NewApp(g), ranks)
			for step := 0; step < g.Timesteps; step++ {
				for i := 0; i < g.MaxWidth; i++ {
					wantG, wantS := wantRoutes(g, plan.Edges(0), ranks, step, i)
					if got := plan.gather(0, step, i); !slices.Equal(got, wantG) {
						t.Fatalf("%s w=%d radix=%d period=%d seed=%d ranks=%d: Gather(%d, %d) = %v, want %v",
							g.Dependence, g.MaxWidth, g.Radix, g.Period, g.Seed, ranks, step, i, got, wantG)
					}
					if got := plan.sends(0, step, i); !slices.Equal(got, wantS) {
						t.Fatalf("%s w=%d radix=%d period=%d seed=%d ranks=%d: Sends(%d, %d) = %v, want %v",
							g.Dependence, g.MaxWidth, g.Radix, g.Period, g.Seed, ranks, step, i, got, wantS)
					}
				}
			}
		}
	}
}

// TestLocalPlanCompilesLocalRoutesOnly: a cluster worker's plan carries
// the full plan's routes for the columns it executes and none for the
// rest, with edge ids that agree with the global numbering.
func TestLocalPlanCompilesLocalRoutesOnly(t *testing.T) {
	g := core.MustNew(core.Params{Timesteps: 8, MaxWidth: 11, Dependence: core.Spread, Radix: 5, Period: 3})
	const ranks = 4
	full := BuildRankPlan(core.NewApp(g), ranks)
	local := BuildRankPlanLocal(core.NewApp(g), ranks, Span{Lo: 1, Hi: 3})
	if !slices.Equal(full.Edges(0), local.Edges(0)) {
		t.Fatal("local plan numbers the edges differently from the full plan")
	}
	for step := 0; step < g.Timesteps; step++ {
		for i := 0; i < g.MaxWidth; i++ {
			wantG, wantS := full.gather(0, step, i), full.sends(0, step, i)
			if r := OwnerOf(i, g.MaxWidth, ranks); r < 1 || r >= 3 {
				wantG, wantS = nil, nil
			}
			if got := local.gather(0, step, i); !slices.Equal(got, wantG) {
				t.Errorf("Gather(%d, %d) = %v, want %v", step, i, got, wantG)
			}
			if got := local.sends(0, step, i); !slices.Equal(got, wantS) {
				t.Errorf("Sends(%d, %d) = %v, want %v", step, i, got, wantS)
			}
		}
	}
}
