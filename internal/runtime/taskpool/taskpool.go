// Package taskpool implements the OpenMP-task / OmpSs analog (paper
// §3.6–3.7): a shared-memory pool of workers draining a central FIFO
// ready queue, with OpenMP-4.0-style task dependencies tracked by
// per-task counters. The central queue is simple and fair but becomes
// a serialization point at very small task granularities — the same
// contention effect the paper observes for task-dependency runtimes.
//
// The worker pool, counter burn-down and buffer lifetime live in the
// shared exec.Engine; this package contributes only the queue policy.
package taskpool

import (
	"sync"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "taskpool",
		Analog:      "OpenMP task / OmpSs",
		Paradigm:    "task-based",
		Parallelism: "both",
		Distributed: false,
		Async:       true,
		Notes:       "central FIFO ready queue with dependence counters",
	}, func() exec.Policy { return &policy{} })
}

// policy is the central FIFO ready queue: one mutex-guarded list every
// worker pushes to and pops from, in batches.
type policy struct {
	mu   sync.Mutex
	cond sync.Cond
	// items[head:] are the queued tasks, oldest first. Pop advances
	// head. When an append would grow the array and at least half of
	// it is already popped, Push first moves the queue to the front,
	// so the array is reused for the whole run instead of reallocated
	// every few pushes, and a move costs no more than the pops that
	// freed its room.
	items   []int32
	head    int
	closed  bool
	workers int
	// batch[w] is worker w's reusable pop buffer.
	batch [][]int32
}

// Init reuses the queue, the condition variable and the pop buffers of
// the previous run, so a Session's later runs allocate none of them.
func (p *policy) Init(plan *exec.Plan, workers int) {
	p.cond.L = &p.mu
	p.items, p.head = append(p.items[:0], plan.Seeds...), 0
	p.closed = false
	p.workers = workers
	if len(p.batch) != workers {
		p.batch = make([][]int32, workers)
	}
}

func (p *policy) Push(worker int, ids []int32) {
	p.mu.Lock()
	if live := len(p.items) - p.head; p.head >= live && len(p.items)+len(ids) > cap(p.items) {
		p.items, p.head = p.items[:copy(p.items, p.items[p.head:])], 0
	}
	p.items = append(p.items, ids...)
	if len(ids) == 1 {
		p.cond.Signal()
	} else {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *policy) Pop(worker int) ([]int32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head == len(p.items) && !p.closed {
		p.cond.Wait()
	}
	if p.head == len(p.items) {
		return nil, false
	}
	n := exec.FairShare(len(p.items)-p.head, p.workers)
	p.batch[worker] = append(p.batch[worker][:0], p.items[p.head:p.head+n]...)
	p.head += n
	return p.batch[worker], true
}

func (p *policy) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
