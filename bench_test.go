// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§5). Each benchmark drives the same code path as
// cmd/figures at a size bounded for `go test -bench`, and reports the
// headline quantity of the corresponding exhibit via b.ReportMetric:
//
//	Table 2  — dependence-relation query throughput
//	Table 3  — one validated run per runtime backend
//	Fig 4/5  — simulated MPI weak/strong scaling
//	Fig 6/7  — real FLOP/s and efficiency vs problem size (Figs 2/3
//	           are the MPI-only subsets of the same sweeps)
//	Fig 8    — real memory-bound B/s
//	Fig 9    — simulated METG vs node count (4 panels)
//	Fig 10   — simulated METG vs dependencies per task
//	Fig 11   — simulated communication hiding
//	Fig 12   — simulated load imbalance
//	Fig 13   — simulated GPU offload
//
// plus the ablations called out in DESIGN.md §7.
package taskbench

import (
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/harness"
	"taskbench/internal/kernels"
	"taskbench/internal/metg"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/sim"
)

// benchScale keeps simulator sweeps bench-sized.
func benchScale() harness.Scale {
	return harness.Scale{MaxNodes: 4, Steps: 8, PerDoubling: 1, CurvePoints: 8}
}

func benchReal() harness.RealConfig {
	return harness.RealConfig{
		Backends: []string{"serial", "p2p", "taskpool"},
		Steps:    10, Width: 2, MaxIters: 1 << 10, PerDoubling: 1,
	}
}

// BenchmarkTable1Parameters exercises the full CLI parameter space of
// Table 1 (parse + validate one multi-graph command line).
func BenchmarkTable1Parameters(b *testing.B) {
	args := []string{
		"-steps", "100", "-width", "16", "-type", "nearest", "-radix", "5",
		"-kernel", "compute_bound", "-iter", "512", "-output", "64",
		"-and", "-steps", "50", "-width", "8", "-type", "fft",
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.ParseArgs(args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Dependences measures dependence-relation queries for
// every pattern of Table 2.
func BenchmarkTable2Dependences(b *testing.B) {
	for _, dep := range core.DependenceTypes() {
		dep := dep
		b.Run(dep.String(), func(b *testing.B) {
			p := core.Params{Timesteps: 16, MaxWidth: 64, Dependence: dep}
			if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
				p.Radix = 5
			}
			if dep.RequiresPowerOfTwoWidth() {
				p.MaxWidth = 64
			}
			g := core.MustNew(p)
			edges := 0
			for i := 0; i < b.N; i++ {
				t := 1 + i%(g.Timesteps-1)
				col := i % g.WidthAtTimestep(t)
				edges += g.DependenciesForPoint(t, col).Count()
			}
			if edges < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// BenchmarkTable3Systems runs one validated graph on every registered
// backend — the live version of the system inventory.
func BenchmarkTable3Systems(b *testing.B) {
	for _, name := range runtime.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			rt, err := runtime.New(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				app := core.NewApp(core.MustNew(core.Params{
					Timesteps: 10, MaxWidth: 4, Dependence: core.Stencil1D,
				}))
				stats, err := rt.Run(app)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(stats.TasksPerSecond(), "tasks/s")
				}
			}
		})
	}
}

// BenchmarkFig4WeakScaling regenerates the weak-scaling series.
func BenchmarkFig4WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := harness.Fig4WeakScaling(benchScale())
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5StrongScaling regenerates the strong-scaling series.
func BenchmarkFig5StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := harness.Fig5StrongScaling(benchScale())
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig6FlopsVsProblemSize regenerates the real FLOP/s sweep
// (Figure 2 is its MPI-only subset).
func BenchmarkFig6FlopsVsProblemSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig6FlopsVsProblemSize(benchReal())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y > best {
					best = y
				}
			}
		}
		b.ReportMetric(best, "peak-GFLOP/s")
	}
}

// BenchmarkFig7EfficiencyCurve regenerates the real efficiency curve
// (Figure 3 is its MPI-only subset).
func BenchmarkFig7EfficiencyCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig7EfficiencyCurve(benchReal()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MemoryBandwidth regenerates the memory-bound sweep.
func BenchmarkFig8MemoryBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Fig8MemoryBandwidth(benchReal())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y > best {
					best = y
				}
			}
		}
		b.ReportMetric(best, "peak-GB/s")
	}
}

// BenchmarkFig9METGvsNodes regenerates each panel of Figure 9 and
// reports the simulated MPI p2p METG at the largest node count.
func BenchmarkFig9METGvsNodes(b *testing.B) {
	scale := benchScale()
	for _, v := range harness.Fig9Variants(scale) {
		v := v
		b.Run(v.Suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig := harness.Fig9METGvsNodes(v, scale)
				for _, s := range fig.Series {
					if s.Label == "mpi p2p" && len(s.Y) > 0 {
						b.ReportMetric(s.Y[len(s.Y)-1]*1e3, "mpi-METG-µs")
					}
				}
			}
		})
	}
}

// BenchmarkFig10METGvsDeps regenerates the dependencies-per-task
// sweep and reports the MPI 0→9 dependency METG ratio.
func BenchmarkFig10METGvsDeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := harness.Fig10METGvsDeps(benchScale())
		for _, s := range fig.Series {
			if s.Label == "mpi p2p" && len(s.Y) >= 10 {
				b.ReportMetric(s.Y[9]/s.Y[0], "metg-ratio-9v0")
			}
		}
	}
}

// BenchmarkFig11CommunicationHiding regenerates one panel per payload
// size.
func BenchmarkFig11CommunicationHiding(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		bytes int
	}{{"16B", 16}, {"4KiB", 4096}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig := harness.Fig11CommunicationHiding(cfg.bytes, benchScale(), "x")
				if len(fig.Series) == 0 {
					b.Fatal("empty figure")
				}
			}
		})
	}
}

// BenchmarkFig12LoadImbalance regenerates the imbalance curves.
func BenchmarkFig12LoadImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := harness.Fig12LoadImbalance(benchScale())
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig13GPU regenerates the GPU offload curves and reports
// the w4 peak.
func BenchmarkFig13GPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := harness.Fig13GPU(benchScale())
		w4 := fig.Series[2]
		best := 0.0
		for _, y := range w4.Y {
			if y > best {
				best = y
			}
		}
		b.ReportMetric(best, "w4-peak-TFLOP/s")
	}
}

// BenchmarkDepQuery compares the per-call dependence query path
// (DependenciesForPoint: fresh IntervalLists on every query) against
// the compiled DepTable's clipped iterator, which must be several
// times faster with 0 allocs/op — it runs once per executed task on
// every hot path. The mixed case cycles through all four patterns, the
// per-task query profile of a multi-graph run; per-pattern cases break
// the win down (widest for relations whose per-call construction does
// real work: hashing, sorting, interval compression).
func BenchmarkDepQuery(b *testing.B) {
	const steps, width = 16, 64
	cases := []struct {
		name string
		p    core.Params
	}{
		{"stencil_1d", core.Params{Timesteps: steps, MaxWidth: width, Dependence: core.Stencil1D}},
		{"fft", core.Params{Timesteps: steps, MaxWidth: width, Dependence: core.FFT}},
		{"spread", core.Params{Timesteps: steps, MaxWidth: width, Dependence: core.Spread, Radix: 5}},
		{"random_nearest", core.Params{Timesteps: steps, MaxWidth: width, Dependence: core.RandomNearest, Radix: 5}},
	}
	var graphs [4]*core.Graph
	for k, c := range cases {
		graphs[k] = core.MustNew(c.p)
		graphs[k].PrecomputeDeps()
	}
	// Walk (t, col) incrementally: a div/mod per op would swamp the
	// few-ns compiled query being measured.
	advance := func(t, col int) (int, int) {
		if col++; col == width {
			col = 0
			if t++; t == steps {
				t = 1
			}
		}
		return t, col
	}
	naive := func(gs []*core.Graph) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			sum, t, col := 0, 1, 0
			for i := 0; i < b.N; i++ {
				g := gs[i&(len(gs)-1)]
				g.DependenciesForPoint(t, col).ForEach(func(d int) { sum += d })
				t, col = advance(t, col)
			}
			if sum < 0 {
				b.Fatal("impossible")
			}
		}
	}
	compiled := func(gs []*core.Graph) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			sum, t, col := 0, 1, 0
			for i := 0; i < b.N; i++ {
				g := gs[i&(len(gs)-1)]
				it := g.PointDeps(t, col)
				for d, ok := it.Next(); ok; d, ok = it.Next() {
					sum += d
				}
				t, col = advance(t, col)
			}
			if sum < 0 {
				b.Fatal("impossible")
			}
		}
	}
	b.Run("mixed/naive", naive(graphs[:]))
	b.Run("mixed/compiled", compiled(graphs[:]))
	for k, c := range cases {
		b.Run(c.name+"/naive", naive(graphs[k:k+1]))
		b.Run(c.name+"/compiled", compiled(graphs[k:k+1]))
	}
}

// BenchmarkAblationValidation measures the paper's §2 claim that
// payload validation costs under a few percent at small granularity.
// allocs/op is reported so validation's allocation cost (none — the
// compiled-table path) is visible against the run's setup baseline in
// the bench-smoke trajectory; the zero-allocs-per-task invariant
// itself is enforced by the TestZeroAllocsPerTask tests, which
// difference out setup.
func BenchmarkAblationValidation(b *testing.B) {
	run := func(b *testing.B, validate bool) {
		rt, _ := runtime.New("serial")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 50, MaxWidth: 8, Dependence: core.Stencil1D,
				Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: 16},
			}))
			app.Validate = validate
			if _, err := rt.Run(app); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("validate-on", func(b *testing.B) { run(b, true) })
	b.Run("validate-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationDTDvsShard compares full SPMD enumeration with
// dynamic checks against the sharded variant (paper §5.4).
func BenchmarkAblationDTDvsShard(b *testing.B) {
	for _, name := range []string{"dtd", "shard"} {
		name := name
		b.Run(name, func(b *testing.B) {
			rt, _ := runtime.New(name)
			for i := 0; i < b.N; i++ {
				app := core.NewApp(core.MustNew(core.Params{
					Timesteps: 20, MaxWidth: 64, Dependence: core.Stencil1D,
				}))
				app.Workers = 4
				if _, err := rt.Run(app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStealingSmallTasks measures the work-stealing
// queue cost at very small task granularity, where the paper notes
// Chapel's default scheduler beats distrib (§5.7).
func BenchmarkAblationStealingSmallTasks(b *testing.B) {
	for _, name := range []string{"taskpool", "steal"} {
		name := name
		b.Run(name, func(b *testing.B) {
			rt, _ := runtime.New(name)
			for i := 0; i < b.N; i++ {
				app := core.NewApp(core.MustNew(core.Params{
					Timesteps: 50, MaxWidth: 16, Dependence: core.NoComm,
				}))
				if _, err := rt.Run(app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDedicatedCore contrasts inline overhead with a
// dedicated runtime core in the simulator (paper §5.3).
func BenchmarkAblationDedicatedCore(b *testing.B) {
	m := sim.Cori(1)
	w := sim.Workload{Dependence: core.Stencil1D, Steps: 10, WidthPerNode: 32}
	inline, _ := sim.ProfileByName("charm++")
	dedicated, _ := sim.ProfileByName("realm")
	for _, cfg := range []struct {
		name string
		p    sim.Profile
	}{{"inline", inline}, {"dedicated", dedicated}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := sim.Simulate(w.App(1, 1<<20), m, cfg.p)
				if i == b.N-1 {
					b.ReportMetric(st.Efficiency(m.PeakFlops(), 0)*100, "eff-%")
				}
			}
		})
	}
}

// BenchmarkAblationGPUOverdecomposition compares w1 and w4 offload
// (paper §5.8).
func BenchmarkAblationGPUOverdecomposition(b *testing.B) {
	cfg := sim.GPUConfig{Machine: sim.PizDaint(1), Steps: 100, Width: 12, CopyBytesPerTask: 1 << 16}
	for _, w := range []int{1, 4} {
		w := w
		b.Run(map[int]string{1: "w1", 4: "w4"}[w], func(b *testing.B) {
			c := cfg
			c.RanksPerGPU = w
			for i := 0; i < b.N; i++ {
				r := sim.SimulateGPU(c, 1<<24)
				if i == b.N-1 {
					b.ReportMetric(r.FlopsPerSecond()/1e12, "TFLOP/s")
				}
			}
		})
	}
}

// BenchmarkPlanBuild measures expanded-DAG construction — the cost an
// METG sweep used to pay at every measurement point. The parallel
// column-wise builder and Plan.Reset exist to take this off the
// per-point path; Reset is benchmarked alongside for the comparison.
func BenchmarkPlanBuild(b *testing.B) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 64, MaxWidth: 256, Dependence: core.Stencil1D,
	}))
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if plan := exec.BuildPlan(app); len(plan.Seeds) == 0 {
				b.Fatal("plan has no seed tasks")
			}
		}
		b.ReportMetric(float64(app.TotalTasks())*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	})
	b.Run("reset", func(b *testing.B) {
		plan := exec.BuildPlan(app)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan.Reset()
		}
		b.ReportMetric(float64(app.TotalTasks())*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
	})
}

// BenchmarkEngineSweep compares a small efficiency-vs-granularity
// sweep on an engine-backed backend with and without plan reuse:
// "rebuild" reconstructs the DAG at every point (the old behavior),
// "reuse" drives one exec.Session whose plan is Reset per point.
func BenchmarkEngineSweep(b *testing.B) {
	const steps, width = 32, 64
	iters := []int64{64, 16, 4, 1}
	params := func(it int64) core.Params {
		return core.Params{
			Timesteps: steps, MaxWidth: width, Dependence: core.Stencil1D,
			Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: it},
		}
	}
	b.Run("rebuild", func(b *testing.B) {
		rt, err := runtime.New("taskpool")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			for _, it := range iters {
				if _, err := rt.Run(core.NewApp(core.MustNew(params(it)))); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		rt, err := runtime.New("taskpool")
		if err != nil {
			b.Fatal(err)
		}
		pb, ok := rt.(runtime.PolicyBacked)
		if !ok {
			b.Fatal("taskpool is not policy-backed")
		}
		app := core.NewApp(core.MustNew(params(1)))
		sess := exec.NewSession(app, pb.Policy())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range iters {
				app.Graphs[0].Kernel.Iterations = it
				if _, err := sess.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRankSweep compares a distributed efficiency-vs-granularity
// sweep on the p2p backend with and without RankPlan reuse: "rebuild"
// reconstructs spans, cross-rank edge lists, fabric channels and
// payload rows at every point (the old behavior); "reuse" drives one
// exec.RankSession whose RankPlan is Reset per point.
func BenchmarkRankSweep(b *testing.B) {
	// Wide and short with tiny kernels and a spread dependence
	// pattern: the small-granularity, communication-rich regime where
	// per-point setup (spans, cross-rank edge enumeration, fabric
	// wiring, rows) dominates execution.
	const steps, width = 8, 256
	iters := []int64{8, 4, 2, 1}
	params := func(it int64) core.Params {
		return core.Params{
			Timesteps: steps, MaxWidth: width, Dependence: core.Spread, Radix: 5,
			Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: it},
		}
	}
	mkApp := func(it int64) *core.App {
		app := core.NewApp(core.MustNew(params(it)))
		app.Workers = 4
		return app
	}
	b.Run("rebuild", func(b *testing.B) {
		rt, err := runtime.New("p2p")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			for _, it := range iters {
				if _, err := rt.Run(mkApp(it)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		rt, err := runtime.New("p2p")
		if err != nil {
			b.Fatal(err)
		}
		rb, ok := rt.(runtime.RankBacked)
		if !ok {
			b.Fatal("p2p is not rank-backed")
		}
		app := mkApp(1)
		sess, err := exec.NewRankSession(app, rb.RankPolicy())
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range iters {
				app.Graphs[0].Kernel.Iterations = it
				if _, err := sess.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFabricRoundtrip measures one message through the in-process
// fabric — Send then Recv on one edge, 64 bytes, producer and consumer
// on the same goroutine so nothing parks: the per-message floor under
// every rank backend's task overhead.
func BenchmarkFabricRoundtrip(b *testing.B) {
	f := exec.NewFabricFromEdges([][]exec.Edge{{{Producer: 0, Consumer: 1}}})
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 0, 1, payload)
		if len(f.Recv(0, 0, 1)) != len(payload) {
			b.Fatal("short payload")
		}
	}
}

// BenchmarkRankEngineZeroGrain runs every rank policy over a reused
// RankSession at zero kernel iterations on a communication-rich graph
// (spread, five mostly cross-rank inputs per task), so ns/task is the
// rank data plane itself: gather, receive, validate, send. It is the
// rank-engine entry of the CI perf gate.
func BenchmarkRankEngineZeroGrain(b *testing.B) {
	for _, name := range []string{"p2p", "bsp", "dtd", "ptg", "hybrid"} {
		name := name
		b.Run(name, func(b *testing.B) {
			rt, err := runtime.New(name)
			if err != nil {
				b.Fatal(err)
			}
			rb, ok := rt.(runtime.RankBacked)
			if !ok {
				b.Fatalf("%s is not rank-backed", name)
			}
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 250, MaxWidth: 8, Dependence: core.Spread, Radix: 5, OutputBytes: 64,
			}))
			app.Workers = 2
			sess, err := exec.NewRankSession(app, rb.RankPolicy())
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.Run(); err != nil { // warm: first-use slot allocation
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*app.TotalTasks()), "ns/task")
		})
	}
}

// BenchmarkMETGRealBackends measures true host-scale METG(50%) for the
// fastest real backends — the measured analog of Figure 9a's 1-node
// column.
func BenchmarkMETGRealBackends(b *testing.B) {
	cal := kernels.Calibrate()
	for _, name := range []string{"serial", "p2p", "bsp", "taskpool"} {
		name := name
		b.Run(name, func(b *testing.B) {
			rt, err := runtime.New(name)
			if err != nil {
				b.Fatal(err)
			}
			run := func(iterations int64) core.RunStats {
				app := core.NewApp(core.MustNew(core.Params{
					Timesteps: 20, MaxWidth: 2, Dependence: core.Stencil1D,
					Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: iterations},
				}))
				st, err := rt.Run(app)
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			peak := cal.FlopsPerSecondPerCore * float64(run(1).Workers)
			for i := 0; i < b.N; i++ {
				m, _, kind := metg.Search(run, 1<<13, peak, 0, 0.5, 1)
				if kind.Reached() && i == b.N-1 {
					b.ReportMetric(float64(m.Nanoseconds())/1e3, "METG-µs")
				}
			}
		})
	}
}
