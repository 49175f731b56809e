package exec

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
)

// Plan is the fully expanded task DAG of an application, shared by the
// shared-memory DAG backends (the Engine's policies). It resolves each
// task's dependencies to task IDs, counts scheduling predecessors, and
// keeps the payload rows tasks write their outputs into.
//
// Tasks of the same column are additionally serialized when the graph
// carries a per-column scratch buffer: the memory kernel's working set
// is stateful, so two timesteps of one column must not run
// concurrently. This mirrors how the reference runtimes treat scratch
// as a read-write region of the column. The extra edge carries no
// payload.
//
// Outputs are stored by timestep (see Execute). The dependence and
// reader counters burn down as a run progresses; Reset restores them,
// so one Plan can serve many runs (an METG sweep measures the same DAG
// at every point of the granularity curve).
type Plan struct {
	App   *core.App
	Tasks []PlannedTask
	// Seeds are the IDs of initially ready tasks.
	Seeds []int32
	// base[gi] is the ID offset of graph gi.
	base []int32
	// initCount[id] is the initial dependence-counter value of task
	// id, kept so Reset can restore a drained plan.
	initCount []int32
	// scratch[gi][i] is the persistent working set of column i.
	scratch [][]*kernels.Scratch
	// steps[stepBase[gi]+t] is timestep t of graph gi.
	steps    []planStep
	stepBase []int32
	// free[gi] holds graph gi's rows no step holds, guarded by rowMu.
	rowMu sync.Mutex
	free  [][]*stepRow
}

// stepRow holds one timestep's read outputs, column i's at
// data[i*OutputBytes:].
type stepRow struct{ data []byte }

// planStep is one timestep of one graph: its row, held from its first
// read output's write until its last reader is done, and the count of
// next-step tasks with inputs still to read it, readers at a run start.
type planStep struct {
	row     atomic.Pointer[stepRow]
	pending atomic.Int32
	readers int32
}

// plannedTask carries the fields of PlannedTask; see PlannedTask for
// why the two types are split.
type plannedTask struct {
	// Exists is false for slots that are outside a graph's active
	// window (e.g. early timesteps of the tree pattern).
	Exists bool
	Graph  int32
	T, I   int32
	// counter holds the number of unsatisfied scheduling
	// predecessors; see PlannedTask.CountDown.
	counter int32
	// PayloadRefs is the number of tasks that read this task's output
	// payload. An output with readers goes into its step's row; one
	// with none goes to the executing worker's sink.
	PayloadRefs int32
	// Inputs are the producer task IDs in dependence order.
	Inputs []int32
	// Consumers are the scheduling successor task IDs.
	Consumers []int32
}

// PlannedTask is one node of the expanded DAG. Everything but its
// dependence counter is immutable once the plan is built. The counter
// is a plain field behind two methods: CountDown, the atomic decrement
// workers race on during a run, and Pending, an atomic load. BuildPlan
// and Reset write it with plain stores, because they run while no
// worker does (see Reset). The embedded payload is padded out to a
// multiple of 128 bytes (two cache lines, covering the adjacent-line
// prefetcher) so that the counters of neighboring tasks — decremented
// concurrently by different workers during burn-down — never
// false-share a cache line. Task slots in Plan.Tasks are therefore
// line-aligned relative to each other.
type PlannedTask struct {
	plannedTask
	_ [(128 - unsafe.Sizeof(plannedTask{})%128) % 128]byte
}

// CountDown records one satisfied scheduling predecessor and reports
// whether it was the last, i.e. whether the task is now ready. Workers
// race on it, so it is an atomic decrement.
func (t *PlannedTask) CountDown() bool {
	return atomic.AddInt32(&t.counter, -1) == 0
}

// Pending returns the number of unsatisfied scheduling predecessors.
func (t *PlannedTask) Pending() int32 {
	return atomic.LoadInt32(&t.counter)
}

// buildParallelThreshold is the task count below which BuildPlan stays
// on one goroutine; tiny plans are not worth the fan-out.
const buildParallelThreshold = 4096

// BuildPlan expands every graph of the app into a single DAG. Columns
// are expanded in parallel: each task's inputs come from the forward
// dependence relation and its consumers from the reverse relation, so
// every goroutine writes only the tasks of its own columns.
func BuildPlan(app *core.App) *Plan {
	p := &Plan{App: app}
	total, steps := int32(0), int32(0)
	p.base = make([]int32, len(app.Graphs))
	p.stepBase = make([]int32, len(app.Graphs))
	p.scratch = make([][]*kernels.Scratch, len(app.Graphs))
	for gi, g := range app.Graphs {
		p.base[gi], p.stepBase[gi] = total, steps
		total += int32(g.Timesteps * g.MaxWidth)
		steps += int32(g.Timesteps)
		p.scratch[gi] = make([]*kernels.Scratch, g.MaxWidth)
	}
	p.Tasks = make([]PlannedTask, total)
	p.steps = make([]planStep, steps)
	p.free = make([][]*stepRow, len(app.Graphs))
	p.initCount = make([]int32, total)

	// One job per (graph, column span). The compiled dependence tables
	// are built eagerly so workers only read shared graph state.
	type job struct {
		gi     int
		lo, hi int
	}
	var jobs []job
	workers := stdruntime.GOMAXPROCS(0)
	if app.TotalTasks() < buildParallelThreshold {
		workers = 1
	}
	for gi, g := range app.Graphs {
		g.PrecomputeDeps()
		n := workers
		if n > g.MaxWidth {
			n = g.MaxWidth
		}
		for _, span := range BlockAssign(g.MaxWidth, n) {
			if span.Len() > 0 {
				jobs = append(jobs, job{gi, span.Lo, span.Hi})
			}
		}
	}

	seedParts := make([][]int32, len(jobs))
	fills := make([]func(), len(jobs))
	for k, j := range jobs {
		k, j := k, j
		fills[k] = func() { seedParts[k] = p.fillColumns(j.gi, j.lo, j.hi) }
	}
	runJobs(workers, fills)
	for _, part := range seedParts {
		p.Seeds = append(p.Seeds, part...)
	}
	for k := range p.steps {
		p.steps[k].readers = p.steps[k].pending.Load()
	}
	return p
}

// fillColumns expands columns [lo, hi) of graph gi, returning the seed
// tasks found. It writes only tasks of its own columns: inputs are
// read off the forward dependence relation and consumers off the
// reverse relation, which the core library guarantees are exact
// inverses of each other.
func (p *Plan) fillColumns(gi, lo, hi int) []int32 {
	g := p.App.Graphs[gi]
	serializeColumns := g.ScratchBytes > 0
	var seeds []int32
	for i := lo; i < hi; i++ {
		p.scratch[gi][i] = kernels.NewScratch(g.ScratchBytes)
		for t := 0; t < g.Timesteps; t++ {
			if !g.ContainsPoint(t, i) {
				continue
			}
			id := p.ID(gi, t, i)
			task := &p.Tasks[id]
			task.Exists = true
			task.Graph = int32(gi)
			task.T = int32(t)
			task.I = int32(i)

			nDeps := 0
			selfDep := false
			deps := g.PointDeps(t, i)
			for dep, ok := deps.Next(); ok; dep, ok = deps.Next() {
				task.Inputs = append(task.Inputs, p.ID(gi, t-1, dep))
				nDeps++
				if dep == i {
					selfDep = true
				}
			}
			// Scratch serialization edge from the column's previous
			// task (no payload).
			if serializeColumns && !selfDep && t > 0 && g.ContainsPoint(t-1, i) {
				nDeps++
			}

			refs := int32(0)
			cons := g.PointConsumers(t, i)
			for c, ok := cons.Next(); ok; c, ok = cons.Next() {
				task.Consumers = append(task.Consumers, p.ID(gi, t+1, c))
				refs++
			}
			task.PayloadRefs = refs
			// Mirror of the serialization edge: this task schedules the
			// column's next task when that task does not already
			// consume this one.
			if serializeColumns && g.ContainsPoint(t+1, i) {
				consumesSelf := false
				next := g.PointDeps(t+1, i)
				for dep, ok := next.Next(); ok; dep, ok = next.Next() {
					if dep == i {
						consumesSelf = true
					}
				}
				if !consumesSelf {
					task.Consumers = append(task.Consumers, p.ID(gi, t+1, i))
				}
			}

			if len(task.Inputs) > 0 {
				p.steps[p.stepBase[gi]+int32(t)-1].pending.Add(1)
			}
			task.counter = int32(nDeps)
			p.initCount[id] = int32(nDeps)
			if nDeps == 0 {
				seeds = append(seeds, id)
			}
		}
	}
	return seeds
}

// Reset restores the dependence and reader counters of a drained plan,
// making it ready for another run without rebuilding the O(tasks) DAG.
// The seed list, inputs, consumers and reader counts are immutable, and
// a run hands every row it took back to the free list, so only the
// counters need restoring. Scratch buffers keep their
// contents: they model persistent per-column working sets. Plans above
// buildParallelThreshold fan the counter walk out over task spans, so
// an METG sweep does not pay a serial O(tasks) pass at every
// measurement point.
//
// The counters are restored with plain stores, which is safe because
// Reset runs between runs: Engine.Run returns only after its WaitGroup
// has seen every worker exit, and the next run's workers start with go
// statements after Reset returns (runJobs joins the span goroutines).
func (p *Plan) Reset() {
	for k := range p.steps {
		p.steps[k].pending.Store(p.steps[k].readers)
	}
	n := len(p.Tasks)
	workers := stdruntime.GOMAXPROCS(0)
	if n < buildParallelThreshold || workers <= 1 {
		p.resetSpan(0, n)
		return
	}
	jobs := make([]func(), 0, workers)
	for _, span := range BlockAssign(n, workers) {
		if span.Len() > 0 {
			span := span
			jobs = append(jobs, func() { p.resetSpan(span.Lo, span.Hi) })
		}
	}
	runJobs(workers, jobs)
}

// resetSpan restores the counters of task IDs [lo, hi).
func (p *Plan) resetSpan(lo, hi int) {
	for id := lo; id < hi; id++ {
		p.Tasks[id].counter = p.initCount[id]
	}
}

// ID maps (graph, timestep, column) to the task's DAG index.
func (p *Plan) ID(graph, t, i int) int32 {
	g := p.App.Graphs[graph]
	return p.base[graph] + int32(t*g.MaxWidth+i)
}

// Graph returns the graph of task id.
func (p *Plan) Graph(id int32) *core.Graph {
	return p.App.Graphs[p.Tasks[id].Graph]
}

// Scratch returns the working set of task id's column.
func (p *Plan) Scratch(id int32) *kernels.Scratch {
	task := &p.Tasks[id]
	return p.scratch[task.Graph][task.I]
}

// TaskCount returns the number of existing tasks.
func (p *Plan) TaskCount() int64 {
	return p.App.TotalTasks()
}

// Execute runs task id. Every payload dependence joins adjacent
// timesteps of one graph, so it reads its inputs from the previous
// step's row, and writes its output into its column's slot of its own
// step's row, or into sink (the worker's, at least OutputBytes long)
// when nobody reads it. It does NOT touch dependence counters — the
// backend's burn-down is what hands the output to its readers. A task
// with inputs then counts itself off the previous step; the last one
// hands that row back to the free list. Returns the first validation
// error (the task still writes an output so execution can continue
// draining).
func (p *Plan) Execute(id int32, sink []byte, validate bool, inputs [][]byte) ([][]byte, error) {
	task := &p.Tasks[id]
	g := p.App.Graphs[task.Graph]
	n := g.OutputBytes
	step := p.stepBase[task.Graph] + task.T
	out := sink[:n]
	if task.PayloadRefs > 0 {
		r := p.steps[step].row.Load()
		if r == nil {
			r = p.takeRow(step, task.Graph)
		}
		slot := int(task.I) * n
		out = r.data[slot : slot+n]
	}

	inputs = inputs[:0]
	if len(task.Inputs) > 0 {
		row := p.steps[step-1].row.Load().data
		first := p.base[task.Graph] + (task.T-1)*int32(g.MaxWidth)
		for _, prodID := range task.Inputs {
			slot := int(prodID-first) * n
			inputs = append(inputs, row[slot:slot+n]) // grows to the DAG's max in-degree once, then reuses capacity
		}
	}

	err := g.ExecutePoint(int(task.T), int(task.I), out, inputs, p.Scratch(id), validate)
	if err != nil {
		g.WriteOutput(int(task.T), int(task.I), out)
	}
	if len(task.Inputs) > 0 && p.steps[step-1].pending.Add(-1) == 0 {
		p.releaseRow(step-1, task.Graph)
	}
	return inputs, err
}

// takeRow gives step a row from graph gi's free list, unless a racing
// writer of the step did first: writers race only here, under rowMu.
func (p *Plan) takeRow(step, gi int32) *stepRow {
	s := &p.steps[step]
	p.rowMu.Lock()
	defer p.rowMu.Unlock()
	r := s.row.Load()
	if r == nil {
		if k := len(p.free[gi]) - 1; k >= 0 {
			r, p.free[gi] = p.free[gi][k], p.free[gi][:k]
		} else {
			g := p.App.Graphs[gi]
			r = &stepRow{data: make([]byte, g.MaxWidth*g.OutputBytes)} // only when every row is in use, so a Session allocates its peak rows in use once
		}
		s.row.Store(r)
	}
	return r
}

// releaseRow hands step's row back to graph gi's free list. Its caller
// made the step's last reader count reach zero, so every read of the
// row happened before, and the next taker receives it through rowMu.
func (p *Plan) releaseRow(step, gi int32) {
	r := p.steps[step].row.Swap(nil)
	p.rowMu.Lock()
	p.free[gi] = append(p.free[gi], r) // grows to the peak rows in use on the first run, then reuses capacity
	p.rowMu.Unlock()
}
