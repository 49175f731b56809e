// Package graphexec implements the TensorFlow analog (paper §3.14):
// the task graph is compiled once into an immutable execution plan
// (the analog of explicit graph construction in Python) and a static
// schedule — a topological wavefront per timestep — is derived from it
// before execution begins, like XLA scheduling a compiled graph.
// Workers drain the current wavefront in batches and advance to the
// next when every task of the wave has completed. Plan construction
// happens outside the timed region, like building a TensorFlow graph
// before session.run.
//
// The worker pool, buffer lifetime and error capture live in the
// shared exec.Engine; this package contributes the wavefront policy.
// It implements exec.Completer: the static schedule makes dependence
// counters redundant, since every predecessor of wave t lives in wave
// t-1.
package graphexec

import (
	"sync"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "graphexec",
		Analog:      "TensorFlow",
		Paradigm:    "dataflow (compiled graph executor)",
		Parallelism: "explicit",
		Distributed: false,
		// The wavefront schedule imposes a global phase per timestep.
		Async: false,
		Notes: "graph compiled to a static per-timestep wavefront schedule",
	}, func() exec.Policy { return &policy{} })
}

// policy executes a precompiled wavefront schedule: levels[t] holds
// every task of timestep t (across all graphs), and level t+1 opens
// only when level t has fully completed. All plan edges connect
// adjacent timesteps, so the schedule is topological by construction.
type policy struct {
	mu      sync.Mutex
	cond    sync.Cond
	plan    *exec.Plan
	levels  [][]int32
	level   int // current wavefront
	cursor  int // next unclaimed task in the current wavefront
	pending int // claimed but not yet completed tasks of the wavefront
	workers int
	closed  bool
}

// Compile derives the static wavefront schedule from the plan,
// invoked by exec.NewEngine at construction so the work stays outside
// the timed region, like building a TensorFlow graph before
// session.run. The schedule is immutable; reruns of a Reset plan (and
// Init itself) reuse it.
func (p *policy) Compile(plan *exec.Plan) {
	if p.plan == plan {
		return
	}
	p.plan = plan
	p.levels = nil
	for id := range plan.Tasks {
		task := &plan.Tasks[id]
		if !task.Exists {
			continue
		}
		for int(task.T) >= len(p.levels) {
			p.levels = append(p.levels, nil)
		}
		p.levels[task.T] = append(p.levels[task.T], int32(id))
	}
}

func (p *policy) Init(plan *exec.Plan, workers int) {
	p.cond.L = &p.mu
	p.Compile(plan) // cached no-op after NewEngine's untimed compile
	p.level = 0
	p.cursor = 0
	p.pending = 0
	p.workers = workers
	p.closed = false
}

// Push is never called: the policy implements exec.Completer and the
// schedule is static.
func (p *policy) Push(worker int, ids []int32) {}

func (p *policy) Pop(worker int) ([]int32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, false
		}
		if p.level < len(p.levels) {
			if avail := len(p.levels[p.level]) - p.cursor; avail > 0 {
				n := exec.FairShare(avail, p.workers)
				// The compiled schedule is immutable and the cursor
				// only advances, so the subslice can be handed out
				// without copying.
				wave := p.levels[p.level][p.cursor : p.cursor+n]
				p.cursor += n
				p.pending += n
				return wave, true
			}
		}
		// Wave drained (or schedule exhausted): wait for stragglers to
		// complete and open the next wave, or for Close.
		p.cond.Wait()
	}
}

// Complete retires one task of the current wavefront, opening the next
// wave when the last straggler finishes.
func (p *policy) Complete(worker int, id int32) {
	p.mu.Lock()
	p.pending--
	if p.pending == 0 && p.cursor == len(p.levels[p.level]) {
		p.level++
		p.cursor = 0
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *policy) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
