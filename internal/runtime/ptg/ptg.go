// Package ptg implements the PaRSEC parameterized-task-graph analog
// (paper §3.8): the algebraic description of the task graph is
// expanded at "compile time" — before the timed region — into
// per-rank, per-dependence-set firing rules, so execution walks
// precompiled task and communication lists with no graph queries at
// all. This is the compile-time counterpart of dtd, reproducing the
// paper's DTD-vs-PTG scalability comparison (§5.4).
package ptg

import (
	"sync"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "ptg",
		Analog:      "PaRSEC PTG",
		Paradigm:    "task-based (parameterized task graph)",
		Parallelism: "implicit",
		Distributed: true,
		Async:       false,
		Notes:       "dependence relations expanded to firing rules before execution",
	}, func() exec.RankPolicy { return &policy{} })
}

// compiledTask is one owned task at some timestep: its column and the
// plan's compiled routes for it (views into the plan, not copies).
type compiledTask struct {
	col    int
	inputs []exec.Route // producers at t-1: local row or edge to receive on
	sends  []exec.Route // remote consumers at t+1: edge to send on
}

// compiledStep is everything a rank does in one timestep of one graph.
type compiledStep struct {
	tasks []compiledTask
}

// rankSchedule is a rank's full firing-rule expansion for one graph.
type rankSchedule struct {
	steps []compiledStep
}

// policy executes precompiled per-rank schedules. The expansion
// happens once in CompileRanks (at engine construction, outside any
// timed region), so a reused RankPlan replays the same schedule at
// every measurement point of a sweep.
type policy struct {
	compiled [][]rankSchedule // [rank][graph]
	inputs   [][][]byte       // [rank]: reusable gather buffer
}

func (*policy) Layout(app *core.App) exec.RankLayout { return exec.FlatLayout(app) }

// CompileRanks expands the dependence relations into per-rank firing
// rules, in parallel across ranks.
func (p *policy) CompileRanks(plan *exec.RankPlan) {
	p.compiled = make([][]rankSchedule, plan.Ranks)
	p.inputs = make([][][]byte, plan.Ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < plan.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p.compiled[rank] = compileRank(plan, rank)
		}(rank)
	}
	wg.Wait()
}

// compileRank expands one rank's firing rules. Which input is remote
// and which edge carries it is the plan's decision (its compiled
// routes); this only lays the rules out per timestep.
func compileRank(plan *exec.RankPlan, rank int) []rankSchedule {
	out := make([]rankSchedule, len(plan.App.Graphs))
	for gi, g := range plan.App.Graphs {
		span := plan.Span(gi, rank)
		sched := rankSchedule{steps: make([]compiledStep, g.Timesteps)}
		for t := 0; t < g.Timesteps; t++ {
			off := g.OffsetAtTimestep(t)
			w := g.WidthAtTimestep(t)
			lo := max(span.Lo, off)
			hi := min(span.Hi, off+w)
			for i := lo; i < hi; i++ {
				sched.steps[t].tasks = append(sched.steps[t].tasks, compiledTask{
					col:    i,
					inputs: plan.Gather(gi, t, i),
					sends:  plan.Sends(gi, t, i),
				})
			}
		}
		out[gi] = sched
	}
	return out
}

// Step walks the rank's precompiled task and communication lists; no
// graph queries happen inside the timed region.
func (p *policy) Step(rc *exec.RankCtx, t int) {
	inputs := p.inputs[rc.Rank]
	for gi := range p.compiled[rc.Rank] {
		if !rc.Active(gi, t) {
			continue
		}
		for _, task := range p.compiled[rc.Rank][gi].steps[t].tasks {
			inputs = inputs[:0]
			for _, in := range task.inputs {
				if in.Edge == exec.LocalEdge {
					inputs = append(inputs, rc.Prev(gi, int(in.Col)))
				} else {
					inputs = append(inputs, rc.Recv(gi, int(in.Edge)))
				}
			}
			out := rc.ExecWith(gi, t, task.col, inputs)
			for _, to := range task.sends {
				rc.Send(gi, int(to.Edge), out)
			}
		}
		rc.Flip(gi)
	}
	p.inputs[rc.Rank] = inputs
}
