package exec_test

// Rank-driver tests. Over the in-process Fabric a RankEngine runs its
// ranks on min(local ranks, GOMAXPROCS) drivers, each stepping a
// contiguous block of ranks, whichever of them can run without
// waiting. These tests run every rank backend with more ranks than Ps,
// so ranks share drivers, and pin how many goroutines a run starts.

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
)

// driverCases are the rank backends with layouts that put more ranks
// than Ps on one process: five ranks (blocks of 3 and 2 at two Ps),
// actor's chare per column at width 16, and hybrid's three ranks of two
// threads. coforall has one rank whatever the layout, and runs too.
var driverCases = []struct {
	name                  string
	width, workers, nodes int
}{
	{"p2p", 8, 5, 0},
	{"bsp", 8, 5, 0},
	{"dtd", 8, 5, 0},
	{"ptg", 8, 5, 0},
	{"shard", 8, 5, 0},
	{"actor", 16, 2, 0},
	{"hybrid", 8, 6, 3},
	{"coforall", 8, 2, 0},
}

// driverApp is a validated graph of the given pattern, tall enough
// that producers run into EdgeCap.
func driverApp(dep core.DependenceType, width, workers, nodes int, faultRate float64) *core.App {
	radix := 0
	if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
		radix = 5
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 12, MaxWidth: width, Dependence: dep, Radix: radix,
		OutputBytes: 32, Seed: 11, FaultRate: faultRate,
	}))
	app.Workers, app.Nodes = workers, nodes
	return app
}

// runOnFabric runs app twice on one engine over a Fabric under the
// policy's layout and returns the first error, failing the test, with
// every rank pair's counters, if the runs take longer than 10 s.
func runOnFabric(t *testing.T, app *core.App, policy exec.RankPolicy) error {
	t.Helper()
	layout := policy.Layout(app)
	plan := exec.BuildRankPlan(app, layout.Ranks)
	fabric := exec.NewFabric(plan)
	engine := exec.NewLocalRankEngine(plan, policy, layout.Threads, fabric)
	done := make(chan error, 1)
	go func() {
		for run := 0; run < 2; run++ {
			plan.Reset()
			if err := engine.Run(app.Validate); err != nil {
				done <- fmt.Errorf("run %d: %w", run, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		engine.Close()
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%d ranks did not finish two runs within 10s; rank pairs:\n%v", layout.Ranks, fabric)
		return nil
	}
}

// TestRankDriversEveryBackend runs every rank backend at one and two Ps
// over every dependence type with validation on, then with every
// output corrupted, which must fail with a *core.ValidationError rather
// than hang. A driver that ran a rank which then parked on a rank of
// its own block, or a barrier whose parties were not the drivers,
// would hang here.
func TestRankDriversEveryBackend(t *testing.T) {
	for _, c := range driverCases {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/P%d", c.name, procs), func(t *testing.T) {
				defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
				rt, err := runtime.New(c.name)
				if err != nil {
					t.Fatal(err)
				}
				policy := rt.(runtime.RankBacked).RankPolicy()
				if ranks := policy.Layout(driverApp(core.Stencil1D, c.width, c.workers, c.nodes, 0)).Ranks; ranks <= procs && c.name != "coforall" {
					t.Fatalf("%d ranks at %d Ps: the ranks do not share drivers", ranks, procs)
				}
				for _, dep := range core.DependenceTypes() {
					if err := runOnFabric(t, driverApp(dep, c.width, c.workers, c.nodes, 0), policy); err != nil {
						t.Errorf("%s: %v", dep, err)
					}
				}
				err = runOnFabric(t, driverApp(core.Stencil1D, c.width, c.workers, c.nodes, 1), policy)
				var verr *core.ValidationError
				if !errors.As(err, &verr) {
					t.Errorf("with every output corrupted: got %v, want a *core.ValidationError", err)
				}
			})
		}
	}
}

// goroutineProbe is p2p's step recording the most goroutines alive
// while any rank steps.
type goroutineProbe struct {
	p2p.Policy
	most atomic.Int64
}

func (p *goroutineProbe) Step(rc *exec.RankCtx, t int) {
	n := int64(stdruntime.NumGoroutine())
	for m := p.most.Load(); n > m && !p.most.CompareAndSwap(m, n); m = p.most.Load() {
	}
	p.Policy.Step(rc, t)
}

// TestRankDriversPerP pins how many goroutines a run over the Fabric
// starts: one driver per P, not one per rank, and the count follows
// GOMAXPROCS from run to run on one engine.
func TestRankDriversPerP(t *testing.T) {
	app := driverApp(core.Stencil1D, 8, 5, 0, 0)
	probe := &goroutineProbe{}
	sess, err := exec.NewRankSession(app, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, procs := range []int{1, 2, 4, 8} {
		func() {
			defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
			before := int64(stdruntime.NumGoroutine())
			probe.most.Store(0)
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := probe.most.Load()-before, int64(min(5, procs)); got != want {
				t.Errorf("GOMAXPROCS %d: a run of 5 ranks started %d goroutines, want %d", procs, got, want)
			}
		}()
	}
}

// slowRank is p2p's step with rank 2 sleeping through each of its
// steps.
type slowRank struct{ p2p.Policy }

func (p slowRank) Step(rc *exec.RankCtx, t int) {
	if rc.Rank == 2 {
		time.Sleep(100 * time.Microsecond)
	}
	p.Policy.Step(rc, t)
}

// TestDriverReservesBeforeStep runs three ranks at two Ps: one driver
// steps ranks 0 and 1, another rank 2, which is slow. The graph (seed 7
// of random_nearest at width 3, a column per rank) joins the pairs
// 0 → 1 and 1 ⇄ 2 and no other, so rank 1 waits on rank 2 while rank 0
// waits on nobody and runs EdgeCap steps ahead of rank 1. A driver that
// reserved a rank's next step at the end of its flush, as a rank
// goroutine did, would park there for rank 1, which only that driver
// can run; reserving before the step, it runs rank 1 instead.
func TestDriverReservesBeforeStep(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(2))
	g := core.MustNew(core.Params{
		Timesteps: 40, MaxWidth: 3, Dependence: core.RandomNearest, Radix: 3, OutputBytes: 16, Seed: 7,
	})
	var pairs [][2]int
	exec.CrossEdges(g, 3, func(p, c int) { pairs = append(pairs, [2]int{p, c}) })
	if want := [][2]int{{0, 1}, {2, 1}, {1, 2}}; !slices.Equal(pairs, want) {
		t.Fatalf("cross-rank edges %v, want %v", pairs, want)
	}
	app := core.NewApp(g)
	app.Workers = 3
	if err := runOnFabric(t, app, slowRank{}); err != nil {
		t.Fatal(err)
	}
}

// noInbound is a Transport that names no Fabric to receive from.
type noInbound struct{ exec.Transport }

// TestEngineRefusesTransportWithoutInbound: the engine receives remote
// inputs straight from a Fabric, so a transport that names none is
// refused when the engine is built, not at its first remote input.
func TestEngineRefusesTransportWithoutInbound(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{Timesteps: 2, MaxWidth: 4, Dependence: core.Stencil1D}))
	plan := exec.BuildRankPlan(app, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocalRankEngine accepted a transport that delivers into no Fabric")
		}
	}()
	exec.NewLocalRankEngine(plan, p2p.Policy{}, 1, noInbound{exec.NewFabric(plan)})
}
