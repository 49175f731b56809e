package exec

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"taskbench/internal/core"
)

// Engine executes a Plan under a pluggable scheduling Policy. It owns
// the parts every shared-memory DAG backend previously duplicated:
// the worker goroutines and their buffers, first-error capture with
// validation short-circuiting, dependence-counter burn-down, and
// completion tracking. The Policy
// decides only where ready tasks wait and which worker runs them.
//
// An Engine may be reused: each Run re-initializes the policy, so a
// caller holding a Reset Plan can rerun it (see Session).
type Engine struct {
	plan      *Plan
	policy    Policy
	completer Completer // non-nil when policy propagates readiness itself
	workers   int
	// Worker w's buffers, kept across runs and sized so none grows:
	// ready[w] collects the tasks its current batch made ready (at most
	// ReadyBatch tasks times the plan's largest out-degree), inputs[w]
	// gathers a task's payloads and sink[w] takes outputs nobody reads.
	ready  [][]int32
	inputs [][][]byte
	sink   [][]byte
}

// NewEngine builds an engine over plan with the given policy and
// worker count.
func NewEngine(plan *Plan, policy Policy, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	if compiler, ok := policy.(Compiler); ok {
		// Schedule compilation happens here, outside any timed region.
		compiler.Compile(plan)
	}
	completer, _ := policy.(Completer)
	e := &Engine{
		plan:      plan,
		policy:    policy,
		completer: completer,
		workers:   workers,
		ready:     make([][]int32, workers),
		inputs:    make([][][]byte, workers),
		sink:      make([][]byte, workers),
	}
	maxIn, maxOut, maxBytes := 0, 0, 0
	for id := range plan.Tasks {
		maxIn = max(maxIn, len(plan.Tasks[id].Inputs))
		maxOut = max(maxOut, len(plan.Tasks[id].Consumers))
	}
	for _, g := range plan.App.Graphs {
		maxBytes = max(maxBytes, g.OutputBytes)
	}
	for w := range e.ready {
		e.ready[w] = make([]int32, 0, ReadyBatch*maxOut)
		e.inputs[w] = make([][]byte, 0, maxIn)
		e.sink[w] = make([]byte, maxBytes)
	}
	return e
}

// Run executes every task of the plan once and returns the first
// validation error, if any. The plan's dependence counters burn down
// during the run (except under Completer policies, which may
// propagate readiness without touching them — graphexec's static
// wavefront never does); call Plan.Reset before running again rather
// than assuming drained counters. Even on error the whole DAG is
// executed (validation is skipped after the first failure), so the
// policy always sees a complete run.
func (e *Engine) Run(validate bool) error {
	plan := e.plan
	var firstErr ErrOnce
	var remaining atomic.Int64
	remaining.Store(plan.TaskCount())

	e.policy.Init(plan, e.workers)
	if remaining.Load() == 0 {
		// Nothing to run (an app with no graphs): close immediately so
		// workers do not block forever waiting for a first task.
		e.policy.Close()
	}

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			e.runWorker(self, validate, &firstErr, &remaining)
		}(w)
	}
	wg.Wait()
	return firstErr.Err()
}

// runWorker is one worker goroutine's task loop — the innermost hot
// path of every shared-memory DAG backend. At sub-100µs granularities
// any per-task allocation here shows up directly in the METG curve, so
// the worker's buffers are reused across runs and only error paths
// construct values.
//
// The loop pays a locked instruction only where workers race: one per
// edge in the counter burn-down, one per task with inputs in
// Plan.Execute's step release, and one per popped batch on remaining.
// The tasks a batch readies reach the policy in one Push at the end of
// the batch, or every ReadyBatch executed tasks if the batch is longer,
// so no successor waits behind more than ReadyBatch tasks of its
// readier's batch.
func (e *Engine) runWorker(self int, validate bool, firstErr *ErrOnce, remaining *atomic.Int64) {
	plan, inputs, sink := e.plan, e.inputs[self], e.sink[self]
	for {
		ids, ok := e.policy.Pop(self)
		if !ok {
			return
		}
		if len(ids) == 0 {
			// Spinning policy with no work right now.
			stdruntime.Gosched()
			continue
		}
		ready := e.ready[self][:0]
		for k, id := range ids {
			var err error
			inputs, err = plan.Execute(id, sink, validate && !firstErr.Failed(), inputs)
			if err != nil {
				firstErr.Set(err)
			}
			if e.completer != nil {
				e.completer.Complete(self, id)
				continue
			}
			for _, cons := range plan.Tasks[id].Consumers {
				if plan.Tasks[cons].CountDown() {
					ready = append(ready, cons) // never grows: NewEngine sizes it for ReadyBatch tasks of the largest out-degree
				}
			}
			if k%ReadyBatch == ReadyBatch-1 && len(ready) > 0 {
				e.policy.Push(self, ready)
				ready = ready[:0]
			}
		}
		if len(ready) > 0 {
			e.policy.Push(self, ready)
		}
		if remaining.Add(-int64(len(ids))) == 0 {
			e.policy.Close()
		}
	}
}

// Session couples an App with a reusable Plan and Engine so repeated
// runs of one configuration (an METG sweep measuring the same graph at
// shrinking kernel sizes) pay plan construction once instead of
// O(tasks) per measurement point. Callers may mutate the app's kernel
// configuration between runs; the DAG shape must stay fixed.
type Session struct {
	App     *core.App
	Plan    *Plan
	engine  *Engine
	workers int
}

// NewSession builds the app's plan (in parallel) and prepares an
// engine over it with the given policy.
func NewSession(app *core.App, policy Policy) *Session {
	workers := WorkersFor(app)
	plan := BuildPlan(app)
	return &Session{
		App:     app,
		Plan:    plan,
		engine:  NewEngine(plan, policy, workers),
		workers: workers,
	}
}

// Run resets the plan and executes it once, returning fresh statistics
// for the app's current kernel configuration.
func (s *Session) Run() (core.RunStats, error) {
	s.Plan.Reset()
	return Measure(s.App, s.workers, func() error {
		return s.engine.Run(s.App.Validate)
	})
}

// RunPolicy executes app once on a fresh Plan and Engine — the shared
// Run body of every engine-backed shared-memory backend, as RunRanks is
// of the rank-based ones. Plan construction is inside the timed
// region: a one-shot run pays it, a Session pays it once.
func RunPolicy(app *core.App, policy Policy) (core.RunStats, error) {
	workers := WorkersFor(app)
	return Measure(app, workers, func() error {
		return NewEngine(BuildPlan(app), policy, workers).Run(app.Validate)
	})
}
