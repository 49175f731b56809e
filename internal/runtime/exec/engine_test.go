package exec

import (
	"sort"
	"sync"
	"testing"
	"time"

	"taskbench/internal/core"
)

// refPlan is the single-threaded forward construction the parallel
// builder replaced: walk every task, resolve forward dependencies, and
// append consumers onto producers. BuildPlan must produce a
// structurally identical DAG.
type refTask struct {
	exists    bool
	counter   int32
	inputs    []int32
	consumers []int32
	refs      int32
}

func buildRef(app *core.App) []refTask {
	base := make([]int32, len(app.Graphs))
	total := int32(0)
	for gi, g := range app.Graphs {
		base[gi] = total
		total += int32(g.Timesteps * g.MaxWidth)
	}
	id := func(gi, t, i int) int32 {
		return base[gi] + int32(t*app.Graphs[gi].MaxWidth+i)
	}
	tasks := make([]refTask, total)
	for gi, g := range app.Graphs {
		serialize := g.ScratchBytes > 0
		for t := 0; t < g.Timesteps; t++ {
			off := g.OffsetAtTimestep(t)
			for i := off; i < off+g.WidthAtTimestep(t); i++ {
				task := &tasks[id(gi, t, i)]
				task.exists = true
				selfDep := false
				g.DependenciesForPoint(t, i).ForEach(func(dep int) {
					prod := &tasks[id(gi, t-1, dep)]
					task.inputs = append(task.inputs, id(gi, t-1, dep))
					prod.consumers = append(prod.consumers, id(gi, t, i))
					prod.refs++
					task.counter++
					if dep == i {
						selfDep = true
					}
				})
				if serialize && !selfDep && t > 0 && g.ContainsPoint(t-1, i) {
					prod := &tasks[id(gi, t-1, i)]
					prod.consumers = append(prod.consumers, id(gi, t, i))
					task.counter++
				}
			}
		}
	}
	return tasks
}

func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// TestBuildPlanMatchesReference compares the parallel reverse-relation
// build against the forward reference for a battery of patterns,
// including hashed random dependencies, tree holes and scratch
// serialization.
func TestBuildPlanMatchesReference(t *testing.T) {
	apps := map[string]*core.App{
		"stencil": core.NewApp(core.MustNew(core.Params{
			Timesteps: 8, MaxWidth: 16, Dependence: core.Stencil1D})),
		"tree_holes": core.NewApp(core.MustNew(core.Params{
			Timesteps: 7, MaxWidth: 16, Dependence: core.Tree})),
		"fft": core.NewApp(core.MustNew(core.Params{
			Timesteps: 9, MaxWidth: 32, Dependence: core.FFT})),
		"random_nearest": core.NewApp(core.MustNew(core.Params{
			Timesteps: 8, MaxWidth: 16, Dependence: core.RandomNearest, Radix: 5, Seed: 11})),
		"spread_scratch": core.NewApp(core.MustNew(core.Params{
			Timesteps: 6, MaxWidth: 10, Dependence: core.Spread, Radix: 3, ScratchBytes: 64})),
		"trivial_scratch": core.NewApp(core.MustNew(core.Params{
			Timesteps: 5, MaxWidth: 4, Dependence: core.Trivial, ScratchBytes: 64})),
		"multi_graph": core.NewApp(
			core.MustNew(core.Params{GraphID: 0, Timesteps: 6, MaxWidth: 8, Dependence: core.Stencil1DPeriodic}),
			core.MustNew(core.Params{GraphID: 1, Timesteps: 4, MaxWidth: 4, Dependence: core.AllToAll}),
		),
	}
	for name, app := range apps {
		t.Run(name, func(t *testing.T) {
			plan := BuildPlan(app)
			ref := buildRef(app)
			if len(plan.Tasks) != len(ref) {
				t.Fatalf("task slots = %d, want %d", len(plan.Tasks), len(ref))
			}
			seeds := 0
			for id := range ref {
				got, want := &plan.Tasks[id], &ref[id]
				if got.Exists != want.exists {
					t.Fatalf("task %d exists = %v, want %v", id, got.Exists, want.exists)
				}
				if !want.exists {
					continue
				}
				if got.Pending() != want.counter {
					t.Errorf("task %d counter = %d, want %d", id, got.Pending(), want.counter)
				}
				if got.PayloadRefs != want.refs {
					t.Errorf("task %d refs = %d, want %d", id, got.PayloadRefs, want.refs)
				}
				// Inputs must match exactly (dependence order matters
				// for validation); consumer order is scheduling-only.
				if !equalIDs(got.Inputs, want.inputs) {
					t.Errorf("task %d inputs = %v, want %v", id, got.Inputs, want.inputs)
				}
				if !equalIDs(sortedCopy(got.Consumers), sortedCopy(want.consumers)) {
					t.Errorf("task %d consumers = %v, want %v", id, got.Consumers, want.consumers)
				}
				if want.counter == 0 {
					seeds++
				}
			}
			if len(plan.Seeds) != seeds {
				t.Errorf("seeds = %d, want %d", len(plan.Seeds), seeds)
			}
		})
	}
}

// TestBuildPlanParallelPathMatchesSerial forces the parallel path (by
// exceeding the size threshold) and checks it against the reference.
func TestBuildPlanParallelPathMatchesSerial(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 64, MaxWidth: 128, Dependence: core.Stencil1D}))
	if app.TotalTasks() < buildParallelThreshold {
		t.Fatalf("app too small to exercise the parallel path")
	}
	plan := BuildPlan(app)
	ref := buildRef(app)
	for id := range ref {
		if !ref[id].exists {
			continue
		}
		got := &plan.Tasks[id]
		if got.Pending() != ref[id].counter || !equalIDs(got.Inputs, ref[id].inputs) ||
			!equalIDs(sortedCopy(got.Consumers), sortedCopy(ref[id].consumers)) {
			t.Fatalf("task %d diverges from reference", id)
		}
	}
}

// TestPlanReset drains a plan and checks Reset restores every counter
// and the seed list admits a second complete drain.
func TestPlanReset(t *testing.T) {
	app := core.NewApp(
		core.MustNew(core.Params{GraphID: 0, Timesteps: 6, MaxWidth: 8, Dependence: core.FFT}),
		core.MustNew(core.Params{GraphID: 1, Timesteps: 5, MaxWidth: 4, Dependence: core.Trivial, ScratchBytes: 64}),
	)
	plan := BuildPlan(app)
	want := make([]int32, len(plan.Tasks))
	for id := range plan.Tasks {
		want[id] = plan.Tasks[id].Pending()
	}
	for round := 0; round < 3; round++ {
		queue := append([]int32(nil), plan.Seeds...)
		var drained int64
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			drained++
			for _, cons := range plan.Tasks[id].Consumers {
				if plan.Tasks[cons].CountDown() {
					queue = append(queue, cons)
				}
			}
		}
		if drained != plan.TaskCount() {
			t.Fatalf("round %d drained %d tasks, want %d", round, drained, plan.TaskCount())
		}
		plan.Reset()
		for id := range plan.Tasks {
			if got := plan.Tasks[id].Pending(); got != want[id] {
				t.Fatalf("round %d: task %d counter after Reset = %d, want %d", round, id, got, want[id])
			}
		}
	}
}

// chanPolicy is a minimal channel-backed policy used to test the
// engine in isolation from the real backends.
type chanPolicy struct {
	ready chan int32
	batch [][1]int32
}

func (p *chanPolicy) Init(plan *Plan, workers int) {
	p.ready = make(chan int32, plan.TaskCount())
	p.batch = make([][1]int32, workers)
	for _, id := range plan.Seeds {
		p.ready <- id
	}
}

func (p *chanPolicy) Push(worker int, ids []int32) {
	for _, id := range ids {
		p.ready <- id
	}
}

func (p *chanPolicy) Pop(worker int) ([]int32, bool) {
	id, ok := <-p.ready
	if !ok {
		return nil, false
	}
	p.batch[worker][0] = id
	return p.batch[worker][:], true
}

func (p *chanPolicy) Close() { close(p.ready) }

func TestEngineRunsPlanToCompletion(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 10, MaxWidth: 8, Dependence: core.Stencil1DPeriodic}))
	eng := NewEngine(BuildPlan(app), &chanPolicy{}, 4)
	if err := eng.Run(true); err != nil {
		t.Fatalf("engine run failed: %v", err)
	}
}

// TestEngineEmptyApp guards the zero-task path: with nothing to run,
// Close must fire immediately instead of leaving workers blocked in
// Pop forever.
func TestEngineEmptyApp(t *testing.T) {
	app := core.NewApp()
	eng := NewEngine(BuildPlan(app), &chanPolicy{}, 4)
	done := make(chan error, 1)
	go func() { done <- eng.Run(true) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("empty app returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine deadlocked on an empty app")
	}
}

func TestEngineSurfacesValidationError(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 6, MaxWidth: 8, Dependence: core.Stencil1D,
		OutputBytes: 64, FaultRate: 1.0, Seed: 3}))
	eng := NewEngine(BuildPlan(app), &chanPolicy{}, 4)
	err := eng.Run(true)
	if err == nil {
		t.Fatal("engine did not surface injected corruption")
	}
	if _, ok := err.(*core.ValidationError); !ok {
		t.Fatalf("engine returned %T, want *core.ValidationError", err)
	}
}

func TestSessionReuse(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 8, MaxWidth: 8, Dependence: core.Nearest, Radix: 3}))
	app.Workers = 4
	sess := NewSession(app, &chanPolicy{})
	for k := 0; k < 5; k++ {
		st, err := sess.Run()
		if err != nil {
			t.Fatalf("session run %d: %v", k, err)
		}
		if st.Tasks != app.TotalTasks() {
			t.Fatalf("session run %d: tasks = %d, want %d", k, st.Tasks, app.TotalTasks())
		}
	}
}

// TestSessionConcurrentEnginesShareNothing checks two sessions over
// the same app params never interfere (each builds its own plan).
func TestSessionConcurrentEnginesShareNothing(t *testing.T) {
	mk := func() *core.App {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 8, MaxWidth: 8, Dependence: core.Stencil1D}))
		app.Workers = 2
		return app
	}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(mk(), &chanPolicy{})
			for r := 0; r < 3; r++ {
				if _, err := sess.Run(); err != nil {
					t.Errorf("concurrent session: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestMeasureKeepsStatsOnError(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{Timesteps: 2, MaxWidth: 2}))
	st, err := Measure(app, 3, func() error { return &core.ValidationError{Detail: "boom"} })
	if err == nil {
		t.Fatal("Measure swallowed the error")
	}
	if st.Workers != 3 {
		t.Errorf("Workers = %d, want 3 even on failure", st.Workers)
	}
	if st.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0 even on failure", st.Elapsed)
	}
	if st.Tasks != app.TotalTasks() {
		t.Errorf("Tasks = %d, want %d even on failure", st.Tasks, app.TotalTasks())
	}
}

// compilingPolicy records when Compile runs relative to engine
// construction and Run, guarding the untimed-compilation contract.
type compilingPolicy struct {
	chanPolicy
	compiled int
}

func (p *compilingPolicy) Compile(plan *Plan) { p.compiled++ }

func TestNewEngineCompilesOutsideTimedRegion(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 4, MaxWidth: 4, Dependence: core.Stencil1D}))
	pol := &compilingPolicy{}
	eng := NewEngine(BuildPlan(app), pol, 2)
	if pol.compiled != 1 {
		t.Fatalf("Compile ran %d times at construction, want 1", pol.compiled)
	}
	if err := eng.Run(true); err != nil {
		t.Fatal(err)
	}
}
