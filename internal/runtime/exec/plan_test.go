package exec

import (
	"testing"
	"testing/quick"

	"taskbench/internal/core"
)

func planApp() *core.App {
	return core.NewApp(
		core.MustNew(core.Params{GraphID: 0, Timesteps: 4, MaxWidth: 4, Dependence: core.Stencil1D}),
		core.MustNew(core.Params{GraphID: 1, Timesteps: 3, MaxWidth: 2, Dependence: core.Trivial}),
	)
}

func TestBuildPlanShape(t *testing.T) {
	app := planApp()
	p := BuildPlan(app)
	if got := p.TaskCount(); got != app.TotalTasks() {
		t.Errorf("TaskCount = %d, want %d", got, app.TotalTasks())
	}
	// Seeds: timestep 0 of graph 0 (4 tasks) plus every task of the
	// trivial graph (6 tasks).
	if got := len(p.Seeds); got != 4+6 {
		t.Errorf("Seeds = %d, want 10", got)
	}
	// Every existing task's counter equals its input count (stencil
	// has no scratch, so no serialization edges).
	for id := range p.Tasks {
		task := &p.Tasks[id]
		if !task.Exists {
			continue
		}
		if got := task.Pending(); got != int32(len(task.Inputs)) {
			t.Errorf("task %d counter = %d, want %d", id, got, len(task.Inputs))
		}
	}
}

func TestBuildPlanConsumersMatchInputs(t *testing.T) {
	p := BuildPlan(planApp())
	// Sum of PayloadRefs equals total dependence edges.
	var refs, edges int64
	for id := range p.Tasks {
		task := &p.Tasks[id]
		if !task.Exists {
			continue
		}
		refs += int64(task.PayloadRefs)
		edges += int64(len(task.Inputs))
	}
	if refs != edges {
		t.Errorf("PayloadRefs sum = %d, edges = %d", refs, edges)
	}
}

func TestBuildPlanTreeHoles(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{Timesteps: 5, MaxWidth: 8, Dependence: core.Tree}))
	p := BuildPlan(app)
	var existing int64
	for id := range p.Tasks {
		if p.Tasks[id].Exists {
			existing++
		}
	}
	if existing != app.TotalTasks() {
		t.Errorf("existing tasks = %d, want %d", existing, app.TotalTasks())
	}
	// Slot (0, 5) is a hole.
	if p.Tasks[p.ID(0, 0, 5)].Exists {
		t.Error("tree hole marked as existing")
	}
}

func TestBuildPlanScratchSerialization(t *testing.T) {
	// The trivial pattern with scratch must serialize each column.
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 3, MaxWidth: 2, Dependence: core.Trivial, ScratchBytes: 64,
	}))
	p := BuildPlan(app)
	// Only timestep 0 is seeded: later tasks wait on the column's
	// previous task.
	if got := len(p.Seeds); got != 2 {
		t.Errorf("Seeds = %d, want 2", got)
	}
	for tstep := 1; tstep < 3; tstep++ {
		for i := 0; i < 2; i++ {
			task := &p.Tasks[p.ID(0, tstep, i)]
			if got := task.Pending(); got != 1 {
				t.Errorf("task (%d,%d) counter = %d, want 1 serialization edge", tstep, i, got)
			}
			if len(task.Inputs) != 0 {
				t.Errorf("task (%d,%d) has %d payload inputs, want 0", tstep, i, len(task.Inputs))
			}
		}
	}
	// No double-serialization when the pattern already has a self
	// dependence.
	app2 := core.NewApp(core.MustNew(core.Params{
		Timesteps: 3, MaxWidth: 2, Dependence: core.NoComm, ScratchBytes: 64,
	}))
	p2 := BuildPlan(app2)
	task := &p2.Tasks[p2.ID(0, 1, 0)]
	if got := task.Pending(); got != 1 {
		t.Errorf("no_comm task counter = %d, want 1 (self dep only)", got)
	}
}

func TestPlanExecuteSequentially(t *testing.T) {
	app := planApp()
	p := BuildPlan(app)
	sink := make([]byte, 64)
	// Kahn-style sequential drain.
	queue := append([]int32(nil), p.Seeds...)
	var executed int64
	var inputs [][]byte
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		var err error
		inputs, err = p.Execute(id, sink, true, inputs)
		if err != nil {
			t.Fatalf("Execute(%d): %v", id, err)
		}
		executed++
		for _, cons := range p.Tasks[id].Consumers {
			if p.Tasks[cons].CountDown() {
				queue = append(queue, cons)
			}
		}
	}
	if executed != p.TaskCount() {
		t.Errorf("executed %d tasks, want %d", executed, p.TaskCount())
	}
}

func TestPlanIDRoundTrip(t *testing.T) {
	app := planApp()
	p := BuildPlan(app)
	for gi, g := range app.Graphs {
		for ts := 0; ts < g.Timesteps; ts++ {
			for i := 0; i < g.MaxWidth; i++ {
				id := p.ID(gi, ts, i)
				task := &p.Tasks[id]
				if !task.Exists {
					continue
				}
				if int(task.Graph) != gi || int(task.T) != ts || int(task.I) != i {
					t.Fatalf("ID(%d,%d,%d) → task (%d,%d,%d)", gi, ts, i, task.Graph, task.T, task.I)
				}
			}
		}
	}
}

// Property: the plan's seed set and counters admit a complete
// topological drain for every pattern — no task is unreachable.
func TestPlanDrainsCompletelyProperty(t *testing.T) {
	deps := core.DependenceTypes()
	f := func(depRaw, widthRaw, stepsRaw uint8, scratch bool) bool {
		dep := deps[int(depRaw)%len(deps)]
		width := 1 + int(widthRaw)%16
		if dep.RequiresPowerOfTwoWidth() {
			width = 1 << (int(widthRaw) % 5)
		}
		steps := 1 + int(stepsRaw)%8
		radix := 0
		if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
			radix = 1 + int(widthRaw)%min(5, width)
		}
		p := core.Params{Timesteps: steps, MaxWidth: width, Dependence: dep, Radix: radix}
		if scratch {
			p.ScratchBytes = 64
		}
		g, err := core.New(p)
		if err != nil {
			return false
		}
		plan := BuildPlan(core.NewApp(g))
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
		return drained == plan.TaskCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
