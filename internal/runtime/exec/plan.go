package exec

import (
	stdruntime "runtime"
	"sync/atomic"
	"unsafe"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
)

// Plan is the fully expanded task DAG of an application, shared by the
// shared-memory DAG backends (the Engine's policies). It resolves each
// task's dependencies to task IDs, counts scheduling predecessors, and
// precomputes the reference count of each task's output buffer.
//
// Tasks of the same column are additionally serialized when the graph
// carries a per-column scratch buffer: the memory kernel's working set
// is stateful, so two timesteps of one column must not run
// concurrently. This mirrors how the reference runtimes treat scratch
// as a read-write region of the column. The extra edge carries no
// payload.
//
// The dependence counters burn down as a run progresses; Reset
// restores them, so one Plan can serve many runs (an METG sweep
// measures the same DAG at every point of the granularity curve).
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
}

// plannedTask carries the fields of PlannedTask; see PlannedTask for
// why the two types are split.
type plannedTask struct {
	// Exists is false for slots that are outside a graph's active
	// window (e.g. early timesteps of the tree pattern).
	Exists bool
	Graph  int32
	T, I   int32
	// Counter holds the number of unsatisfied scheduling
	// predecessors.
	Counter atomic.Int32
	// PayloadRefs is the number of tasks that read this task's output
	// payload. The buffer is allocated with PayloadRefs+1 references;
	// the extra one belongs to the producer and is dropped right after
	// execution, so buffers with no readers recycle immediately.
	PayloadRefs int32
	// Inputs are the producer task IDs in dependence order.
	Inputs []int32
	// Consumers are the scheduling successor task IDs.
	Consumers []int32
}

// PlannedTask is one node of the expanded DAG. The embedded payload is
// padded out to a multiple of 128 bytes (two cache lines, covering the
// adjacent-line prefetcher) so that the Counters of neighboring tasks —
// decremented concurrently by different workers during burn-down —
// never false-share a cache line. Task slots in Plan.Tasks are
// therefore line-aligned relative to each other.
type PlannedTask struct {
	plannedTask
	_ [(128 - unsafe.Sizeof(plannedTask{})%128) % 128]byte
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
	total := int32(0)
	p.base = make([]int32, len(app.Graphs))
	p.scratch = make([][]*kernels.Scratch, len(app.Graphs))
	for gi, g := range app.Graphs {
		p.base[gi] = total
		total += int32(g.Timesteps * g.MaxWidth)
		p.scratch[gi] = make([]*kernels.Scratch, g.MaxWidth)
	}
	p.Tasks = make([]PlannedTask, total)
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

			task.Counter.Store(int32(nDeps))
			p.initCount[id] = int32(nDeps)
			if nDeps == 0 {
				seeds = append(seeds, id)
			}
		}
	}
	return seeds
}

// Reset restores the dependence counters of a drained plan, making it
// ready for another run without rebuilding the O(tasks) DAG. The seed
// list, inputs, consumers and payload reference counts are immutable,
// so only the counters need restoring. Scratch buffers keep their
// contents: they model persistent per-column working sets. Plans above
// buildParallelThreshold fan the counter walk out over task spans, so
// an METG sweep does not pay a serial O(tasks) pass at every
// measurement point.
func (p *Plan) Reset() {
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
		p.Tasks[id].Counter.Store(p.initCount[id])
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

// Execute runs task id: it allocates the task's output from pool,
// gathers input payloads from out, validates and executes the kernel,
// publishes the output, and releases the input references. It does NOT
// touch dependence counters — queueing discipline is the backend's
// business. Returns the first validation error (the task still
// publishes an output so execution can continue draining).
//
//taskbench:hotpath
func (p *Plan) Execute(id int32, out []*Buf, pools []*BufPool, validate bool, inputs [][]byte) ([][]byte, error) {
	task := &p.Tasks[id]
	g := p.App.Graphs[task.Graph]
	buf := pools[task.Graph].Get(int(task.PayloadRefs) + 1)

	inputs = inputs[:0]
	for _, prodID := range task.Inputs {
		inputs = append(inputs, out[prodID].Data) //taskbench:allocok grows to the DAG's max in-degree once, then reuses capacity
	}

	err := g.ExecutePoint(int(task.T), int(task.I), buf.Data, inputs, p.Scratch(id), validate)
	if err != nil {
		g.WriteOutput(int(task.T), int(task.I), buf.Data)
	}
	out[id] = buf
	for _, prodID := range task.Inputs {
		out[prodID].Release()
	}
	buf.Release() // the producer's own reference
	return inputs, err
}

// NewPools allocates one payload buffer pool per graph.
func NewPools(app *core.App) []*BufPool {
	pools := make([]*BufPool, len(app.Graphs))
	for gi, g := range app.Graphs {
		pools[gi] = NewBufPool(g.OutputBytes)
	}
	return pools
}
