package exec

// ReadyBatch is the batch size policies use when moving ready tasks in
// and out of their queues. Batching pops and pushes in small slices
// amortizes one lock acquisition (or channel operation) over several
// tasks, cutting queue contention at small task granularities — the
// regime the paper's METG metric probes.
const ReadyBatch = 8

// FairShare sizes a pop batch: an equal share of the available work,
// at least one task, capped at ReadyBatch. Batches grow when work is
// plentiful (cutting lock traffic at small granularities) and shrink
// to one when work is scarce, so idle workers are not starved behind
// a hoarder.
func FairShare(avail, workers int) int {
	return min(max(avail/workers, 1), ReadyBatch)
}

// Policy is the scheduling discipline plugged into an Engine. The
// Engine owns everything every shared-memory DAG backend has in
// common — worker goroutines, first-error capture, payload buffer
// lifetime, dependence-counter burn-down and completion tracking — and
// delegates only the ready-queue discipline to the Policy. Each
// backend registered with runtime.RegisterPolicy is one Policy
// implementation of a few dozen lines, mirroring how the paper keeps
// system-specific code thin over a shared core library.
//
// A Policy is used by one Engine at a time. Init is called at the
// start of every run and must fully reset internal state, so one
// Policy value can drive repeated runs of a Reset Plan.
type Policy interface {
	// Init prepares the policy for a run over plan with the given
	// worker count. The policy seeds its ready structure from
	// plan.Seeds (tasks whose dependence counters are already zero).
	Init(plan *Plan, workers int)

	// Push makes ids ready to run. worker identifies the calling
	// worker, letting locality-aware policies keep work local. The
	// slice is reused by the caller after Push returns; policies that
	// retain ids beyond the call must copy them.
	Push(worker int, ids []int32)

	// Pop returns the next batch of tasks for worker. A policy may
	// block until work arrives (queue- and channel-based policies) or
	// return an empty batch with ok=true to let the worker spin
	// (work-stealing policies). ok=false tells the worker to exit.
	// The returned slice is valid until the worker's next Pop.
	Pop(worker int) (ids []int32, ok bool)

	// Close is called exactly once per run, after the last task
	// completes. It must wake every blocked Pop; all subsequent Pops
	// report ok=false.
	Close()
}

// Compiler is an optional Policy extension for policies that derive
// immutable state from the plan (e.g. a compiled static schedule).
// NewEngine invokes it once at engine construction — outside any
// timed region — so Init stays cheap inside measured runs and every
// point of an METG sweep sees an already-compiled schedule.
type Compiler interface {
	Compile(plan *Plan)
}

// Completer is an optional Policy extension that takes over readiness
// propagation after each task completes. When a policy implements it,
// the Engine calls Complete instead of burning down the consumers'
// dependence counters itself. The events policy uses this to route
// completion through first-class Realm-style events; the graphexec
// policy uses it to advance a precompiled topological wavefront.
type Completer interface {
	// Complete records that worker finished task id. The policy is
	// responsible for making any newly runnable tasks available to
	// Pop.
	Complete(worker int, id int32)
}
