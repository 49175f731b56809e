// Package central implements the centralized-controller analog of
// Spark and Dask (paper §3.3, §3.11): a single controller goroutine
// owns the entire scheduling state — the ready list and the grant
// queue — and workers round-trip to it for every task grant and every
// batch of newly ready tasks. The controller is a throughput
// bottleneck that grows with the number of workers, which is why the
// paper's Figure 9 shows Spark's METG rising immediately with node
// count.
//
// The worker pool, counter burn-down and buffer lifetime live in the
// shared exec.Engine; this package contributes only the grant policy.
package central

import (
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterPolicy(runtime.Info{
		Name:        "central",
		Analog:      "Spark / Dask",
		Paradigm:    "centralized task scheduling",
		Parallelism: "implicit",
		Distributed: true,
		Async:       true,
		Notes:       "single controller grants every task; workers round-trip per task",
	}, func() exec.Policy { return &policy{} })
}

// msg is one worker→controller round-trip: a batch of newly ready
// tasks, a request for the next grant, or both are nil-checked apart.
type msg struct {
	ready []int32
	reply chan int32
}

// policy funnels every scheduling decision through one controller
// goroutine, mirroring the Spark driver. Pushes copy their batch (the
// handoff models serializing state to the driver); grants return one
// task per round-trip.
type policy struct {
	msgs    chan msg
	done    chan struct{}
	replies []chan int32
	batch   [][1]int32
}

func (p *policy) Init(plan *exec.Plan, workers int) {
	p.msgs = make(chan msg)
	p.done = make(chan struct{})
	p.replies = make([]chan int32, workers)
	p.batch = make([][1]int32, workers)
	for w := range p.replies {
		p.replies[w] = make(chan int32, 1)
	}
	go p.controller(append([]int32(nil), plan.Seeds...), workers)
}

// controller is the only goroutine that touches the ready list. It
// serves until every worker has received its shutdown grant (-1), so
// late pushes and requests never block a worker.
func (p *policy) controller(ready []int32, workers int) {
	var waiting []chan int32
	closed := false
	served := 0
	for served < workers {
		if closed {
			m := <-p.msgs
			if m.reply != nil {
				m.reply <- -1
				served++
			}
			continue
		}
		select {
		case m := <-p.msgs:
			ready = append(ready, m.ready...)
			if m.reply != nil {
				waiting = append(waiting, m.reply)
			}
		case <-p.done:
			closed = true
			for _, reply := range waiting {
				reply <- -1
				served++
			}
			waiting = nil
			continue
		}
		for len(waiting) > 0 && len(ready) > 0 {
			waiting[0] <- ready[0]
			waiting = waiting[1:]
			ready = ready[1:]
		}
	}
}

// Push ships the ready batch to the controller. The copy models the
// completion message a Spark executor sends to the driver.
func (p *policy) Push(worker int, ids []int32) {
	p.msgs <- msg{ready: append([]int32(nil), ids...)}
}

func (p *policy) Pop(worker int) ([]int32, bool) {
	p.msgs <- msg{reply: p.replies[worker]}
	id := <-p.replies[worker]
	if id < 0 {
		return nil, false
	}
	p.batch[worker][0] = id
	return p.batch[worker][:], true
}

func (p *policy) Close() { close(p.done) }
