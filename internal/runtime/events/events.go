// Package events implements the Realm analog (paper §3.9): tasks are
// asynchronous, and dependencies are expressed as first-class events
// passed from producers to consumers. Each task owns a completion
// event; a task is enqueued for execution when the events of all its
// inputs have triggered. The whole event graph is wired up front,
// modeling Realm's subgraph optimization, and execution is fully
// asynchronous across timesteps and graphs.
//
// The worker pool, buffer lifetime and error capture live in the
// shared exec.Engine; this package contributes the event wiring. It
// implements exec.Completer, so readiness propagates through event
// triggers rather than the engine's counter burn-down.
package events

import (
	"sync"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "events",
		Analog:      "Realm",
		Paradigm:    "task-based (event-driven)",
		Parallelism: "explicit",
		Distributed: false,
		Async:       true,
		Notes:       "first-class completion events; event graph wired up front (subgraph API)",
	}, func() exec.Policy { return &Policy{} })
}

// Event is a one-shot trigger with subscriber callbacks, the core
// synchronization primitive of Realm.
type Event struct {
	mu        sync.Mutex
	triggered bool
	subs      []func()
}

// Subscribe registers fn to run when the event triggers. If the event
// already triggered, fn runs immediately.
func (e *Event) Subscribe(fn func()) {
	e.mu.Lock()
	if e.triggered {
		e.mu.Unlock()
		fn()
		return
	}
	e.subs = append(e.subs, fn) // the subscriber list is the event; one entry per dependence
	e.mu.Unlock()
}

// Trigger fires the event exactly once, running all subscribers.
func (e *Event) Trigger() {
	e.mu.Lock()
	if e.triggered {
		e.mu.Unlock()
		return
	}
	e.triggered = true
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}

// Policy wires one completion Event per task and subscribes each task
// to its scheduling predecessors; triggered countdowns feed a ready
// channel sized for the whole DAG so triggers never block. The dataflow
// backend reuses it with the wiring moved into the run.
type Policy struct {
	ready  chan int32
	events []*Event
	batch  [][1]int32
}

// Init creates the events and wires the whole event graph before any
// worker runs.
func (p *Policy) Init(plan *exec.Plan, workers int) {
	p.Alloc(plan, workers)
	p.Wire(plan)
}

// Alloc creates the ready channel and one untriggered Event per task:
// the part of Init that must precede the first Pop.
func (p *Policy) Alloc(plan *exec.Plan, workers int) {
	p.ready = make(chan int32, plan.TaskCount())
	p.events = make([]*Event, len(plan.Tasks))
	p.batch = make([][1]int32, workers)
	for id := range plan.Tasks {
		if plan.Tasks[id].Exists {
			p.events[id] = &Event{}
		}
	}
}

// Wire walks the tasks in program order and subscribes each to the
// completion events of its scheduling predecessors via a countdown;
// tasks with none are ready at once. It is safe to run while workers
// already execute: a subscription to an event that has triggered fires
// on the spot, and the ready channel never blocks.
func (p *Policy) Wire(plan *exec.Plan) {
	for id := range plan.Tasks {
		task := &plan.Tasks[id]
		if !task.Exists {
			continue
		}
		id32 := int32(id)
		n := task.Pending()
		if n == 0 {
			p.ready <- id32
			continue
		}
		countdown := func() { // one subscription closure per task is the paradigm (Realm's event waiter)
			if task.CountDown() {
				p.ready <- id32
			}
		}
		for _, prodID := range task.Inputs {
			p.events[prodID].Subscribe(countdown)
		}
		// Scratch-serialization edges are scheduling-only
		// predecessors not present in Inputs.
		extra := int(n) - len(task.Inputs)
		if extra > 0 {
			prev := plan.ID(int(task.Graph), int(task.T)-1, int(task.I))
			for k := 0; k < extra; k++ {
				p.events[prev].Subscribe(countdown)
			}
		}
	}
}

// Push is never called: the policy implements exec.Completer, so
// readiness propagates through event triggers.
func (p *Policy) Push(worker int, ids []int32) {}

func (p *Policy) Pop(worker int) ([]int32, bool) {
	id, ok := <-p.ready
	if !ok {
		return nil, false
	}
	p.batch[worker][0] = id
	return p.batch[worker][:], true
}

// Complete triggers the task's completion event, running the countdown
// of every subscribed consumer.
func (p *Policy) Complete(worker int, id int32) {
	p.events[id].Trigger()
}

func (p *Policy) Close() { close(p.ready) }
