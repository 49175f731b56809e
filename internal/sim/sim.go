package sim

import (
	"container/heap"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// Simulate executes the app on the machine under the profile and
// returns run statistics with Elapsed set to the simulated makespan.
// Workers is the machine's total core count (matching the paper's
// task-granularity formula, which divides by all cores of the
// allocation whether or not the runtime reserves some).
//
// Columns are block-distributed over nodes and, within a node, over
// the node's compute cores (total cores minus the profile's dedicated
// cores). Synchronous profiles execute each core's tasks in program
// order with blocking receives; asynchronous profiles execute any
// ready task, overlapping communication with computation; work
// stealing lets a ready task run on any idle core of its node;
// a central controller serializes every task grant.
func Simulate(app *core.App, m Machine, p Profile) core.RunStats {
	s := newSimState(app, m, p)
	if p.Async || p.CentralGrant > 0 {
		s.runAsync()
	} else {
		s.runSync()
	}
	stats := core.StatsFor(app)
	stats.Workers = m.TotalCores()
	stats.Elapsed = s.makespan
	return stats
}

// simState carries the mutable simulation state.
type simState struct {
	app  *core.App
	m    Machine
	p    Profile
	plan *exec.Plan

	computeCores int // per node
	totalCores   int

	// node[id] and coreOf[id] pin each task.
	node   []int32
	coreOf []int32 // global core index

	// ready[id] is the time all inputs have arrived; counter lives in
	// the plan.
	ready []time.Duration

	coreFree []time.Duration // per global core
	nicFree  []time.Duration // per node
	ctrlFree time.Duration

	remoteLat time.Duration
	makespan  time.Duration
}

func newSimState(app *core.App, m Machine, p Profile) *simState {
	s := &simState{app: app, m: m, p: p, plan: exec.BuildPlan(app)}
	s.computeCores = m.CoresPerNode - p.DedicatedCores
	if s.computeCores < 1 {
		s.computeCores = 1
	}
	s.totalCores = m.Nodes * s.computeCores
	n := len(s.plan.Tasks)
	s.node = make([]int32, n)
	s.coreOf = make([]int32, n)
	s.ready = make([]time.Duration, n)
	s.coreFree = make([]time.Duration, s.totalCores)
	s.nicFree = make([]time.Duration, m.Nodes)
	s.remoteLat = m.RemoteLatency()

	for gi, g := range app.Graphs {
		nodeSpans := exec.BlockAssign(g.MaxWidth, m.Nodes)
		for i := 0; i < g.MaxWidth; i++ {
			nd := exec.OwnerOf(i, g.MaxWidth, m.Nodes)
			span := nodeSpans[nd]
			var c int
			if span.Len() > 0 {
				c = exec.OwnerOf(i-span.Lo, span.Len(), s.computeCores)
			}
			for t := 0; t < g.Timesteps; t++ {
				id := s.plan.ID(gi, t, i)
				s.node[id] = int32(nd)
				s.coreOf[id] = int32(nd*s.computeCores + c)
			}
		}
	}
	return s
}

// duration returns the kernel execution time of task id on a CPU core.
func (s *simState) duration(id int32) time.Duration {
	task := &s.plan.Tasks[id]
	g := s.app.Graphs[task.Graph]
	k := g.Kernel
	var seconds float64
	switch {
	case k.FlopsPerTask() > 0:
		// Use the un-imbalanced iteration count, then scale by the
		// task's deterministic multiplier.
		flops := float64(k.Iterations) * 128
		seconds = flops / (s.m.FlopsPerCore * s.p.cap())
		if k.ImbalanceFactor > 0 {
			mult := g.TaskMultiplier(int(task.T), int(task.I))
			seconds *= (1 - k.ImbalanceFactor) + k.ImbalanceFactor*mult
		}
	case k.WaitDuration > 0:
		return k.WaitDuration
	default:
		return 0
	}
	return time.Duration(seconds * float64(time.Second))
}

// service returns the total core occupancy of task id.
func (s *simState) service(id int32) time.Duration {
	task := &s.plan.Tasks[id]
	sv := s.duration(id) + s.p.TaskOverhead
	sv += time.Duration(len(task.Inputs)) * s.p.DepOverhead
	if s.p.DynamicCheckPerCore > 0 {
		sv += time.Duration(s.totalCores) * s.p.DynamicCheckPerCore
	}
	return sv
}

// deliver propagates task id's completion at time finish to all of its
// consumers, modeling payload transfer costs, and decrements their
// counters. push is called with each newly ready consumer.
func (s *simState) deliver(id int32, finish time.Duration, push func(cons int32)) {
	task := &s.plan.Tasks[id]
	g := s.app.Graphs[task.Graph]
	bytes := float64(g.OutputBytes)
	for _, cons := range task.Consumers {
		var arrival time.Duration
		switch {
		case s.coreOf[cons] == s.coreOf[id]:
			arrival = finish
		case s.node[cons] == s.node[id]:
			arrival = finish + s.m.LocalLatency
		default:
			xfer := time.Duration(bytes / s.m.NetBandwidth * float64(time.Second))
			sendStart := max(s.nicFree[s.node[id]], finish)
			s.nicFree[s.node[id]] = sendStart + xfer
			arrival = sendStart + xfer + s.remoteLat + s.p.MsgOverhead
		}
		if arrival > s.ready[cons] {
			s.ready[cons] = arrival
		}
		if s.plan.Tasks[cons].CountDown() {
			push(cons)
		}
	}
}

// runSync simulates phase-based execution with blocking receives:
// every core (rank) processes its tasks in (timestep, graph, column)
// order, and — crucially — outputs depart only in the communication
// phase at the end of the rank's compute phase for the step. This is
// the distinct computation/communication phase structure of the
// paper's MPI implementation (§3.4), and the reason synchronous
// systems cannot overlap communication with computation (§5.6).
func (s *simState) runSync() {
	maxSteps := 0
	for _, g := range s.app.Graphs {
		if g.Timesteps > maxSteps {
			maxSteps = g.Timesteps
		}
	}
	var stepTasks []int32
	for t := 0; t < maxSteps; t++ {
		// Compute phase.
		stepTasks = stepTasks[:0]
		for gi, g := range s.app.Graphs {
			if t >= g.Timesteps {
				continue
			}
			off := g.OffsetAtTimestep(t)
			w := g.WidthAtTimestep(t)
			for i := off; i < off+w; i++ {
				id := s.plan.ID(gi, t, i)
				core := s.coreOf[id]
				start := max(s.coreFree[core], s.ready[id])
				finish := start + s.service(id)
				s.coreFree[core] = finish
				if finish > s.makespan {
					s.makespan = finish
				}
				stepTasks = append(stepTasks, id)
			}
		}
		// Communication phase: every output departs when its rank has
		// finished computing the whole step.
		for _, id := range stepTasks {
			s.deliver(id, s.coreFree[s.coreOf[id]], func(int32) {})
		}
		if s.p.BarrierOverhead > 0 {
			// Global barrier: everyone waits for the slowest core.
			var slowest time.Duration
			for _, f := range s.coreFree {
				if f > slowest {
					slowest = f
				}
			}
			slowest += s.p.BarrierOverhead
			for c := range s.coreFree {
				s.coreFree[c] = slowest
			}
			if slowest > s.makespan {
				s.makespan = slowest
			}
		}
	}
}

// readyItem is a heap entry for the asynchronous scheduler.
type readyItem struct {
	at time.Duration
	id int32
}

type readyHeap []readyItem

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h readyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)        { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *readyHeap) push(it readyItem) { heap.Push(h, it) }
func (h *readyHeap) pop() readyItem    { return heap.Pop(h).(readyItem) }

// runAsync simulates event-driven execution: any ready task runs as
// soon as a core is available, so communication overlaps computation
// and multiple graphs interleave freely.
func (s *simState) runAsync() {
	var h readyHeap
	for _, id := range s.plan.Seeds {
		h.push(readyItem{0, id})
	}
	for h.Len() > 0 {
		it := h.pop()
		id := it.id
		at := it.at

		// Central controller grant (Spark/Dask).
		if s.p.CentralGrant > 0 {
			grant := max(s.ctrlFree, at) + s.p.CentralGrant
			s.ctrlFree = grant
			at = grant
		}

		// Core selection.
		core := s.coreOf[id]
		if s.p.WorkStealing {
			nd := int(s.node[id])
			best := nd * s.computeCores
			for c := best; c < (nd+1)*s.computeCores; c++ {
				if s.coreFree[c] < s.coreFree[best] {
					best = c
				}
			}
			core = int32(best)
		}

		start := max(s.coreFree[core], at)
		finish := start + s.service(id)
		s.coreFree[core] = finish
		if finish > s.makespan {
			s.makespan = finish
		}
		s.deliver(id, finish, func(cons int32) {
			h.push(readyItem{s.ready[cons], cons})
		})
	}
}
