// Package runtimetest provides the conformance suite every backend
// must pass. Because the core library validates every task input
// against the dependence relation and every output is unique (paper
// §2), a run that completes without error proves the backend delivered
// exactly the right payloads to exactly the right tasks in every
// pattern. Each backend's own test file invokes the suite of the engine
// it runs on — PolicyConformance (exec.Engine: adds fault injection and
// Plan.Reset reuse) or RankPolicyConformance (exec.RankEngine: adds
// mid-graph faults, RankPlan reuse and rank counts); serial, the
// reference, runs the bare Conformance battery.
package runtimetest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

// Case is one conformance scenario.
type Case struct {
	Name string
	App  func() *core.App
}

// graph is shorthand for building test graphs.
func graph(id int, dep core.DependenceType, width, steps, radix, output int) *core.Graph {
	return core.MustNew(core.Params{
		GraphID:     id,
		Timesteps:   steps,
		MaxWidth:    width,
		Dependence:  dep,
		Radix:       radix,
		OutputBytes: output,
		Seed:        99,
	})
}

// Cases returns the standard conformance battery.
func Cases() []Case {
	cases := []Case{}

	// Every dependence pattern on a power-of-two width.
	for _, dep := range core.DependenceTypes() {
		dep := dep
		radix := 0
		if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
			radix = 5
		}
		cases = append(cases, Case{
			Name: "pattern/" + dep.String(),
			App: func() *core.App {
				return core.NewApp(graph(0, dep, 8, 6, radix, 16))
			},
		})
	}

	cases = append(cases,
		Case{"wide_graph", func() *core.App {
			app := core.NewApp(graph(0, core.Stencil1D, 64, 8, 0, 16))
			app.Workers = 4
			return app
		}},
		Case{"tall_graph", func() *core.App {
			app := core.NewApp(graph(0, core.Stencil1D, 4, 100, 0, 16))
			app.Workers = 4
			return app
		}},
		Case{"large_payload", func() *core.App {
			return core.NewApp(graph(0, core.Stencil1DPeriodic, 8, 6, 0, 4096))
		}},
		Case{"single_column", func() *core.App {
			return core.NewApp(graph(0, core.NoComm, 1, 10, 0, 16))
		}},
		Case{"single_step", func() *core.App {
			return core.NewApp(graph(0, core.Stencil1D, 8, 1, 0, 16))
		}},
		Case{"single_worker", func() *core.App {
			app := core.NewApp(graph(0, core.Nearest, 16, 6, 5, 16))
			app.Workers = 1
			return app
		}},
		Case{"more_workers_than_columns", func() *core.App {
			app := core.NewApp(graph(0, core.Stencil1D, 2, 6, 0, 16))
			app.Workers = 8
			return app
		}},
		Case{"compute_kernel", func() *core.App {
			g := core.MustNew(core.Params{
				Timesteps: 5, MaxWidth: 8, Dependence: core.Stencil1D,
				Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: 50},
			})
			return core.NewApp(g)
		}},
		Case{"memory_kernel", func() *core.App {
			g := core.MustNew(core.Params{
				Timesteps: 5, MaxWidth: 8, Dependence: core.NoComm,
				Kernel:       kernels.Config{Type: kernels.MemoryBound, Iterations: 4, SpanBytes: 256},
				ScratchBytes: 4096,
			})
			return core.NewApp(g)
		}},
		Case{"imbalance_kernel", func() *core.App {
			g := core.MustNew(core.Params{
				Timesteps: 5, MaxWidth: 8, Dependence: core.Nearest, Radix: 5,
				Kernel: kernels.Config{Type: kernels.LoadImbalance, Iterations: 40, ImbalanceFactor: 1},
				Seed:   7,
			})
			return core.NewApp(g)
		}},
		Case{"two_heterogeneous_graphs", func() *core.App {
			return core.NewApp(
				graph(0, core.Stencil1D, 8, 6, 0, 16),
				graph(1, core.FFT, 16, 8, 0, 32),
			)
		}},
		Case{"four_identical_graphs", func() *core.App {
			gs := make([]*core.Graph, 4)
			for k := range gs {
				gs[k] = graph(k, core.Nearest, 8, 6, 5, 16)
			}
			return core.NewApp(gs...)
		}},
		Case{"graphs_of_unequal_height", func() *core.App {
			return core.NewApp(
				graph(0, core.Stencil1D, 8, 3, 0, 16),
				graph(1, core.Stencil1D, 8, 9, 0, 16),
			)
		}},
		Case{"validation_disabled", func() *core.App {
			app := core.NewApp(graph(0, core.Stencil1D, 8, 6, 0, 16))
			app.Validate = false
			return app
		}},
	)
	return cases
}

// FaultInjection verifies the backend's error path end to end: with
// payload corruption injected by the core library (Params.FaultRate),
// a consumer must detect the corruption during validation and the
// backend must surface a *core.ValidationError without deadlocking.
func FaultInjection(t *testing.T, name string) {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps:   8,
		MaxWidth:    8,
		Dependence:  core.Stencil1D,
		OutputBytes: 64,
		FaultRate:   1.0, // every task corrupts its output
		Seed:        5,
	}))
	app.Workers = 4
	_, err = rt.Run(app)
	if err == nil {
		t.Fatalf("%s did not report injected corruption", name)
	}
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("%s returned %T (%v), want *core.ValidationError", name, err, err)
	}

	// A clean app on the same backend still runs: the failure did not
	// poison shared state.
	clean := core.NewApp(core.MustNew(core.Params{
		Timesteps: 4, MaxWidth: 4, Dependence: core.Stencil1D,
	}))
	if _, err := rt.Run(clean); err != nil {
		t.Fatalf("%s failed on a clean app after a faulty one: %v", name, err)
	}
}

// Conformance runs the full battery against the named backend.
func Conformance(t *testing.T, name string) {
	t.Helper()
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			rt, err := runtime.New(name)
			if err != nil {
				t.Fatalf("runtime.New(%q): %v", name, err)
			}
			app := c.App()
			stats, err := rt.Run(app)
			if err != nil {
				t.Fatalf("%s failed on %s: %v", name, c.Name, err)
			}
			if stats.Tasks != app.TotalTasks() {
				t.Errorf("stats.Tasks = %d, want %d", stats.Tasks, app.TotalTasks())
			}
			if stats.Elapsed <= 0 {
				t.Errorf("stats.Elapsed = %v, want > 0", stats.Elapsed)
			}
			if stats.Workers <= 0 {
				t.Errorf("stats.Workers = %d, want > 0", stats.Workers)
			}
		})
	}
}

// PolicyConformance is the conformance suite for backends built on the
// shared exec.Engine: the full battery, the fault-injection error
// path, scratch-column serialization under plan reuse, and Plan.Reset
// reuse semantics. Each engine-backed backend's test file invokes it.
func PolicyConformance(t *testing.T, name string) {
	t.Helper()
	Conformance(t, name)
	t.Run("fault_injection", func(t *testing.T) { FaultInjection(t, name) })
	t.Run("plan_reuse", func(t *testing.T) { PlanReuse(t, name) })
	t.Run("plan_reuse_scratch", func(t *testing.T) { PlanReuseScratch(t, name) })
	t.Run("empty_app", func(t *testing.T) { EmptyApp(t, name) })
}

// EmptyApp checks the zero-task path: an app with no graphs must
// return immediately with zero tasks instead of deadlocking workers
// that wait for a first task.
func EmptyApp(t *testing.T, name string) {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	type result struct {
		stats core.RunStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		st, err := rt.Run(core.NewApp())
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s failed on an empty app: %v", name, r.err)
		}
		if r.stats.Tasks != 0 {
			t.Errorf("stats.Tasks = %d, want 0", r.stats.Tasks)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s deadlocked on an empty app", name)
	}
}

// policyFor fetches the backend's scheduling policy, failing the test
// if the backend does not run through the shared engine.
func policyFor(t *testing.T, name string) exec.Policy {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	pb, ok := rt.(runtime.PolicyBacked)
	if !ok {
		t.Fatalf("%s does not implement runtime.PolicyBacked", name)
	}
	return pb.Policy()
}

// PlanReuse runs one Session (one Plan, Reset between runs) several
// times and asserts every run validates cleanly and reports identical
// static statistics — the property METG sweeps rely on to drop the
// per-point O(tasks) rebuild.
func PlanReuse(t *testing.T, name string) {
	t.Helper()
	app := core.NewApp(
		graph(0, core.Stencil1D, 8, 10, 0, 32),
		graph(1, core.FFT, 8, 6, 0, 16),
	)
	app.Workers = 4
	sess := exec.NewSession(app, policyFor(t, name))
	var first core.RunStats
	for k := 0; k < 4; k++ {
		st, err := sess.Run()
		if err != nil {
			t.Fatalf("%s failed on reuse run %d: %v", name, k, err)
		}
		if st.Elapsed <= 0 {
			t.Errorf("run %d: Elapsed = %v, want > 0", k, st.Elapsed)
		}
		if k == 0 {
			first = st
			continue
		}
		if st.Tasks != first.Tasks || st.Dependencies != first.Dependencies ||
			st.Flops != first.Flops || st.Bytes != first.Bytes ||
			st.Workers != first.Workers {
			t.Errorf("run %d stats diverged: got %+v, want static fields of %+v", k, st, first)
		}
	}
}

// PlanReuseScratch reruns a Plan whose graph carries per-column
// scratch: the serialization edges must hold up across Reset, and the
// persistent working sets must not poison later runs.
func PlanReuseScratch(t *testing.T, name string) {
	t.Helper()
	g := core.MustNew(core.Params{
		Timesteps: 6, MaxWidth: 8, Dependence: core.NoComm,
		Kernel:       kernels.Config{Type: kernels.MemoryBound, Iterations: 4, SpanBytes: 256},
		ScratchBytes: 4096,
	})
	app := core.NewApp(g)
	app.Workers = 4
	sess := exec.NewSession(app, policyFor(t, name))
	for k := 0; k < 3; k++ {
		if _, err := sess.Run(); err != nil {
			t.Fatalf("%s failed on scratch reuse run %d: %v", name, k, err)
		}
	}
}

// RankPolicyConformance is the conformance suite for the rank-based
// message-passing backends built on the shared exec.RankEngine: the
// full battery, the fault-injection error path (whole-graph and
// deterministic mid-graph faults), RankPlan reuse across runs, rank
// counts 1–3 including widths not divisible by the rank count, and
// empty-app termination. Each rank backend's test file invokes it.
func RankPolicyConformance(t *testing.T, name string) {
	t.Helper()
	Conformance(t, name)
	t.Run("fault_injection", func(t *testing.T) { FaultInjection(t, name) })
	t.Run("fault_mid_graph", func(t *testing.T) { RankFaultMidGraph(t, name) })
	t.Run("rank_plan_reuse", func(t *testing.T) { RankPlanReuse(t, name) })
	t.Run("rank_counts", func(t *testing.T) { RankCounts(t, name) })
	t.Run("empty_app", func(t *testing.T) { EmptyApp(t, name) })
}

// rankPolicyFor fetches the backend's rank policy, failing the test if
// the backend does not run through the shared rank engine.
func rankPolicyFor(t *testing.T, name string) exec.RankPolicy {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	rb, ok := rt.(runtime.RankBacked)
	if !ok {
		t.Fatalf("%s does not implement runtime.RankBacked", name)
	}
	return rb.RankPolicy()
}

// RankPlanReuse runs one RankSession (one RankPlan and one transport,
// Reset between runs) several times and asserts every run validates
// cleanly and reports identical static statistics — the property
// distributed METG sweeps rely on to drop the per-point rebuild of
// spans, edge lists and fabric wiring. The widths are chosen so block
// distribution over three ranks is uneven.
func RankPlanReuse(t *testing.T, name string) {
	t.Helper()
	app := core.NewApp(
		graph(0, core.Stencil1DPeriodic, 6, 10, 0, 32),
		graph(1, core.Stencil1D, 7, 6, 0, 16),
	)
	app.Workers = 3
	app.Nodes = 3
	sess, err := exec.NewRankSession(app, rankPolicyFor(t, name))
	if err != nil {
		t.Fatalf("%s: NewRankSession: %v", name, err)
	}
	defer sess.Close()
	var first core.RunStats
	for k := 0; k < 4; k++ {
		st, err := sess.Run()
		if err != nil {
			t.Fatalf("%s failed on reuse run %d: %v", name, k, err)
		}
		if st.Elapsed <= 0 {
			t.Errorf("run %d: Elapsed = %v, want > 0", k, st.Elapsed)
		}
		if k == 0 {
			first = st
			continue
		}
		if st.Tasks != first.Tasks || st.Dependencies != first.Dependencies ||
			st.Flops != first.Flops || st.Bytes != first.Bytes ||
			st.Workers != first.Workers {
			t.Errorf("run %d stats diverged: got %+v, want static fields of %+v", k, st, first)
		}
	}
}

// RankCounts runs the backend at rank counts 1, 2 and 3 over every
// dependence pattern at widths that divide unevenly (or not at all)
// across the ranks, including a width smaller than the rank count.
// Thirteen timesteps put more messages on every cross-rank edge than
// it has slots, so every edge's slots wrap (and the tree pattern gets
// through its fan-out into the butterfly sets).
func RankCounts(t *testing.T, name string) {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	for _, dep := range core.DependenceTypes() {
		widths := []int{1, 2, 7}
		if dep.RequiresPowerOfTwoWidth() {
			widths = []int{1, 2, 8}
		}
		for ranks := 1; ranks <= 3; ranks++ {
			for _, width := range widths {
				radix := 0
				if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
					radix = min(5, width)
				}
				app := core.NewApp(graph(0, dep, width, 13, radix, 16))
				app.Workers = ranks
				app.Nodes = ranks
				stats, err := rt.Run(app)
				if err != nil {
					t.Fatalf("%s failed at %s ranks=%d width=%d: %v", name, dep, ranks, width, err)
				}
				if stats.Tasks != app.TotalTasks() {
					t.Errorf("%s ranks=%d width=%d: stats.Tasks = %d, want %d",
						dep, ranks, width, stats.Tasks, app.TotalTasks())
				}
			}
		}
	}
}

// RankFaultMidGraph injects a deterministic partial fault pattern (the
// corruption decision hashes seed, timestep and point, so the same
// tasks fail on every run) and requires the backend to surface the
// validation error without deadlocking: healthy columns must keep
// communicating so every rank can drain its schedule.
func RankFaultMidGraph(t *testing.T, name string) {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps:   12,
		MaxWidth:    6,
		Dependence:  core.Stencil1DPeriodic,
		OutputBytes: 64,
		FaultRate:   0.2,
		Seed:        11,
	}))
	app.Workers = 3
	app.Nodes = 3
	type result struct{ err error }
	done := make(chan result, 1)
	go func() {
		_, err := rt.Run(app)
		done <- result{err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatalf("%s did not report the injected mid-graph corruption", name)
		}
		var verr *core.ValidationError
		if !errors.As(r.err, &verr) {
			t.Fatalf("%s returned %T (%v), want *core.ValidationError", name, r.err, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s deadlocked on a mid-graph fault", name)
	}
}

// Repeat runs a nontrivial multi-graph app several times on the named
// backend, shaking out races that a single run might miss (use with
// -race in CI).
func Repeat(t *testing.T, name string, times int) {
	t.Helper()
	rt, err := runtime.New(name)
	if err != nil {
		t.Fatalf("runtime.New(%q): %v", name, err)
	}
	for k := 0; k < times; k++ {
		app := core.NewApp(
			graph(0, core.Spread, 16, 12, 5, 64),
			graph(1, core.FFT, 16, 12, 0, 16),
			graph(2, core.Tree, 16, 12, 0, 16),
		)
		app.Workers = 4
		if _, err := rt.Run(app); err != nil {
			t.Fatalf("%s failed on repeat %d: %v", name, k, err)
		}
	}
}

// FabricRuns runs app runs times through one reused plan, engine and
// in-process fabric, ranks ranks of threads threads each under policy,
// and fails naming every rank pair's counters and parked threads if the
// runs have not finished within deadline — the signature of a lost
// wake-up or a wait cycle in the fabric's step protocol.
func FabricRuns(t *testing.T, app *core.App, policy exec.RankPolicy, ranks, threads, runs int, deadline time.Duration) {
	t.Helper()
	plan := exec.BuildRankPlan(app, ranks)
	fabric := exec.NewFabric(plan)
	engine := exec.NewLocalRankEngine(plan, policy, threads, fabric)
	done := make(chan error, 1)
	go func() {
		for k := 0; k < runs; k++ {
			plan.Reset()
			if err := engine.Run(app.Validate); err != nil {
				done <- fmt.Errorf("run %d: %w", k, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		engine.Close()
	case <-time.After(deadline):
		t.Fatalf("%d runs did not finish within %v; rank pairs:\n%v", runs, deadline, fabric)
	}
}
