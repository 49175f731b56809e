// The root package's share of the CI perf gate: five of the module's
// ten Go benchmarks (the others sit beside internal/wire,
// internal/runtime/tcp, internal/kernels and internal/core).
// Measurement belongs to bench/, the reference-clocked single-P benchmark behind
// BENCHMARK.json, and each benchmark here names its per-layer twin
// there. They survive because
// bench/ needs a quiet host and a hosted CI runner is not one; the gate
// (cmd/benchgate) runs every Go benchmark in the module on the base
// commit and on the change, in 10 alternating pairs on one runner, and
// trips a row on its per-pair ratios. The paper's exhibits are
// regenerated by cmd/figures and checked by internal/harness's tests.
package taskbench

import (
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
)

// BenchmarkDepQuery compares the per-call dependence query path
// (DependenciesForPoint: fresh IntervalLists on every query) against
// the compiled DepTable's clipped iterator, which must be several
// times faster with 0 allocs/op — it runs once per executed task on
// every hot path. The mixed case cycles through all four patterns, the
// per-task query profile of a multi-graph run; per-pattern cases break
// the win down (widest for relations whose per-call construction does
// real work: hashing, sorting, interval compression).
// bench/ twin: core.depquery_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
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

// BenchmarkPlanBuild measures expanded-DAG construction — the cost an
// METG sweep used to pay at every measurement point. The parallel
// column-wise builder and Plan.Reset exist to take this off the
// per-point path; Reset is benchmarked alongside for the comparison.
// bench/ twin: exec.plan_{build_ms,reset_ns_per_task}; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
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

// BenchmarkFabricRoundtrip measures one message through the in-process
// fabric exactly as its bench/ twin's probe does — column Send then
// Recycle(Recv) on a one-edge fabric, 64 bytes, producer and consumer
// on the same goroutine so nothing parks. The column adapters publish
// and acknowledge per message, so this is the fabric's per-message
// floor with both of its stores; the rank engine pays those once per
// step instead (BenchmarkRankEngineZeroGrain).
// bench/ twin: exec.fabric_roundtrip_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkFabricRoundtrip(b *testing.B) {
	f := exec.NewFabricFromEdges([][]exec.Edge{{{Producer: 0, Consumer: 1}}})
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 0, 1, payload)
		buf := f.Recv(0, 0, 1)
		if len(buf) != len(payload) {
			b.Fatal("short payload")
		}
		f.Recycle(0, buf)
	}
}

// BenchmarkEngineZeroGrain runs the shared-memory policies over a
// reused Session at zero kernel iterations on dag_stencil's graph
// (stencil, width 8, 250 steps, 16 B outputs), so ns/task is the
// exec.Engine's per-task path: pop, execute, counter burn-down, push,
// buffer release. The shared-memory twin of BenchmarkRankEngineZeroGrain.
// bench/ twin: exec.policy.*.ns_per_task; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkEngineZeroGrain(b *testing.B) {
	for _, name := range []string{"taskpool", "steal", "events", "graphexec", "central"} {
		b.Run(name, func(b *testing.B) {
			rt, err := runtime.New(name)
			if err != nil {
				b.Fatal(err)
			}
			pb, ok := rt.(runtime.PolicyBacked)
			if !ok {
				b.Fatalf("%s is not policy-backed", name)
			}
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 250, MaxWidth: 8, Dependence: core.Stencil1D, OutputBytes: 16,
				Kernel: kernels.Config{Type: kernels.ComputeBound},
			}))
			app.Workers = 2
			sess := exec.NewSession(app, pb.Policy())
			if _, err := sess.Run(); err != nil { // warm: take the step rows
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

// BenchmarkRankEngineZeroGrain runs the four distinct rank steps over a
// reused RankSession at zero kernel iterations on a communication-rich
// graph (spread, five mostly cross-rank inputs per task), so ns/task is
// the rank data plane itself: gather, receive, validate, send. Every
// other rank backend reuses one of these steps.
// bench/ twin: exec.rank.*.ns_per_task; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkRankEngineZeroGrain(b *testing.B) {
	for _, name := range []string{"p2p", "bsp", "dtd", "hybrid"} {
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
