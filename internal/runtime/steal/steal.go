// Package steal implements the work-stealing analog (Chapel with the
// distrib scheduler, paper §5.7): each worker owns a deque, pushes
// tasks it makes ready onto its own deque (locality), pops LIFO, and
// steals FIFO from random victims when idle. Stealing rebalances load
// without programmer effort at large task granularities, at the cost
// of extra queue synchronization at very small ones — exactly the
// trade-off the paper observes between Chapel's default and distrib
// schedulers.
//
// The worker pool, counter burn-down and buffer lifetime live in the
// shared exec.Engine; this package contributes only the deque policy.
package steal

import (
	"sync"
	"sync/atomic"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "steal",
		Analog:      "Chapel (distrib scheduler)",
		Paradigm:    "task-based",
		Parallelism: "both",
		Distributed: false,
		Async:       true,
		Notes:       "per-worker deques, LIFO local pop, FIFO random steal",
	}, func() exec.Policy { return &policy{} })
}

// deque is one worker's mutex-guarded work-stealing deque: local pops
// take the newest tasks, thieves take the oldest.
type deque struct {
	mu    sync.Mutex
	items []int32
	// rng is the owner's deterministic victim-selection state.
	rng uint64
	// buf is the owner's reusable pop buffer.
	buf [1]int32
}

// policy holds the per-worker deques. Pop never blocks: when no work
// is found locally or at a random victim, it returns an empty batch
// and the engine spins the worker.
type policy struct {
	deques []deque
	closed atomic.Bool
}

// Init reuses the previous run's deques, so a Session's later runs
// allocate no deque.
func (p *policy) Init(plan *exec.Plan, workers int) {
	if len(p.deques) != workers {
		p.deques = make([]deque, workers)
	}
	p.closed.Store(false)
	for w := range p.deques {
		d := &p.deques[w]
		d.items = d.items[:0]
		// Deterministic per-worker victim sequence.
		d.rng = uint64(w)*0x9e3779b97f4a7c15 + 1
	}
	// Seed round-robin so initial work is spread out.
	for k, id := range plan.Seeds {
		d := &p.deques[k%workers]
		d.items = append(d.items, id)
	}
}

// Push appends the whole ready batch to the worker's own deque under
// one lock — the newly ready tasks share inputs with the task that
// produced them, so keeping them local preserves locality.
func (p *policy) Push(worker int, ids []int32) {
	d := &p.deques[worker]
	d.mu.Lock()
	d.items = append(d.items, ids...)
	d.mu.Unlock()
}

func (p *policy) Pop(worker int) ([]int32, bool) {
	if p.closed.Load() {
		return nil, false
	}
	d := &p.deques[worker]
	d.mu.Lock()
	if n := len(d.items); n > 0 {
		d.buf[0] = d.items[n-1]
		d.items = d.items[:n-1]
		d.mu.Unlock()
		return d.buf[:1], true
	}
	// Steal the oldest task from a pseudo-random victim.
	d.rng = d.rng*6364136223846793005 + 1442695040888963407
	victim := int(d.rng>>33) % len(p.deques)
	d.mu.Unlock()
	if victim == worker {
		victim = (victim + 1) % len(p.deques)
	}
	v := &p.deques[victim]
	v.mu.Lock()
	if len(v.items) > 0 {
		d.buf[0] = v.items[0]
		v.items = v.items[1:]
		v.mu.Unlock()
		return d.buf[:1], true
	}
	v.mu.Unlock()
	return nil, true // nothing found; the engine spins
}

func (p *policy) Close() { p.closed.Store(true) }
