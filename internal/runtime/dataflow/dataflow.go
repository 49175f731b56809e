// Package dataflow implements the Swift/T analog (paper §3.13): the
// program is a sequence of statements with dataflow semantics — every
// statement may execute as soon as the futures it reads are resolved.
// An interpreter enumerates one statement per task in program order,
// subscribing it to the futures of its inputs, while workers already
// execute the statements whose futures have resolved.
//
// The futures are the events policy's completion Events (single
// assignment, subscribe-or-fire) and the workers are the shared
// exec.Engine's. What separates Swift/T from Realm's up-front subgraph
// here is when the wiring happens: events wires the whole graph before
// the first task runs, dataflow interprets the script during the run.
package dataflow

import (
	"sync"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/events"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "dataflow",
		Analog:      "Swift/T",
		Paradigm:    "dataflow scripting (futures)",
		Parallelism: "implicit",
		Distributed: false,
		Async:       true,
		Notes:       "events' futures wired by an interpreter goroutine in program order while workers execute",
	}, func() exec.Policy { return &policy{} })
}

// policy is the events policy with the script interpreted concurrently
// with execution.
type policy struct {
	events.Policy
	interpreter sync.WaitGroup
}

// Init creates the futures and starts the interpreter; workers begin
// popping as soon as the first statement is ready.
func (p *policy) Init(plan *exec.Plan, workers int) {
	p.Alloc(plan, workers)
	p.interpreter.Add(1)
	go func() {
		defer p.interpreter.Done()
		p.Wire(plan)
	}()
}

// Close joins the interpreter before releasing the workers: the last
// task completing means every statement was wired, but the interpreter
// may still be walking the plan's empty slots, and a reused Session
// must never have two.
func (p *policy) Close() {
	p.interpreter.Wait()
	p.Policy.Close()
}
