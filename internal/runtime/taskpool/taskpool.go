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
	mu      sync.Mutex
	cond    *sync.Cond
	items   []int32
	closed  bool
	workers int
	// batch[w] is worker w's reusable pop buffer.
	batch [][]int32
}

func (p *policy) Init(plan *exec.Plan, workers int) {
	p.cond = sync.NewCond(&p.mu)
	p.items = append(p.items[:0], plan.Seeds...)
	p.closed = false
	p.workers = workers
	p.batch = make([][]int32, workers)
}

func (p *policy) Push(worker int, ids []int32) {
	p.mu.Lock()
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
	for len(p.items) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.items) == 0 {
		return nil, false
	}
	n := exec.FairShare(len(p.items), p.workers)
	p.batch[worker] = append(p.batch[worker][:0], p.items[:n]...)
	p.items = p.items[n:]
	return p.batch[worker], true
}

func (p *policy) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
