// Package places implements the X10 analog (paper §3.15): columns are
// partitioned over a small number of places and each place runs its
// activities on a single event loop. When a task's dependence counter
// reaches zero, its execution activity is enqueued at the place owning
// its column, and nowhere else — an idle place never takes another's
// work.
//
// The counter burn-down, worker goroutines (one per place), payload
// buffers and error capture live in the shared exec.Engine, whose
// "counter reaches zero → Push" is X10's "counter reaches zero → async
// at the owning place"; this package contributes only the per-place
// queues.
package places

import (
	"sync"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "places",
		Analog:      "X10",
		Paradigm:    "place-based PGAS",
		Parallelism: "explicit",
		Distributed: true,
		Async:       true,
		Notes:       "one FIFO per place; atomic counters release activities at the owning place; no stealing",
	}, func() exec.Policy { return &policy{} })
}

// place is one address space's activity queue, drained by the one
// worker with the same index. queue and batch swap on every drain, so
// steady state allocates nothing.
type place struct {
	mu     sync.Mutex
	cond   sync.Cond
	queue  []int32 // activities enqueued since the last drain
	batch  []int32 // the drain the place's worker is executing
	closed bool
}

// policy routes every ready task to the place owning its column.
type policy struct {
	plan   *exec.Plan
	places []place
}

func (p *policy) Init(plan *exec.Plan, workers int) {
	p.plan = plan
	if len(p.places) != workers {
		p.places = make([]place, workers)
	}
	for k := range p.places {
		pl := &p.places[k]
		pl.cond.L = &pl.mu
		pl.queue, pl.closed = pl.queue[:0], false
	}
	p.Push(0, plan.Seeds)
}

// Push enqueues each id at its owning place (X10's `at (p) async`).
func (p *policy) Push(worker int, ids []int32) {
	for _, id := range ids {
		task := &p.plan.Tasks[id]
		width := p.plan.App.Graphs[task.Graph].MaxWidth
		pl := &p.places[exec.OwnerOf(int(task.I), width, len(p.places))]
		pl.mu.Lock()
		pl.queue = append(pl.queue, id) // grows to the place's peak backlog, then reuses capacity
		pl.mu.Unlock()
		pl.cond.Signal()
	}
}

// Pop blocks on the caller's own place and drains it whole: the place
// is a single event loop, so nobody else could take the rest.
func (p *policy) Pop(worker int) ([]int32, bool) {
	pl := &p.places[worker]
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for len(pl.queue) == 0 && !pl.closed {
		pl.cond.Wait()
	}
	if len(pl.queue) == 0 {
		return nil, false
	}
	pl.batch, pl.queue = pl.queue, pl.batch[:0]
	return pl.batch, true
}

func (p *policy) Close() {
	for k := range p.places {
		pl := &p.places[k]
		pl.mu.Lock()
		pl.closed = true
		pl.mu.Unlock()
		pl.cond.Signal()
	}
}
