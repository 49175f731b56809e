package exec

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
)

// RankPlan is the rank-space analog of Plan: the precomputed, reusable
// layout a rank-based backend executes. It holds the per-rank column
// spans under block distribution, the distinct cross-rank dependence
// edges of every graph (the slot rings a transport must provide), the
// compiled gather and send routes of every local column, each rank's
// double-buffered payload rows, and the persistent per-column scratch
// working sets. Building it is the setup cost an METG sweep used to pay
// at every measurement point; a RankSession builds one RankPlan per
// configuration and Resets it per point instead.
type RankPlan struct {
	App   *core.App
	Ranks int
	// MaxSteps is the tallest graph's timestep count — the length of
	// every rank's outer loop.
	MaxSteps int
	// Local is the contiguous span of ranks hosted by this process. An
	// in-process plan hosts every rank; a cluster worker builds payload
	// rows and scratch only for its assigned span, while spans and edge
	// lists stay global (remote routing needs them).
	Local Span

	spans   [][]Span             // [graph][rank]
	index   []edgeIndex          // [graph]: distinct cross-rank dependence edges, densely numbered
	routes  []routeTable         // [graph]: compiled gather and send lists of the local columns
	rows    [][]*Rows            // [rank][graph]; nil outside Local
	scratch [][]*kernels.Scratch // [graph][column]; nil outside Local's columns
}

// BuildRankPlan expands the app's rank layout for the given rank
// count. Like BuildPlan, construction fans out over a bounded pool:
// edge lists, routes and scratch are one job per graph, and each rank's
// payload rows (the large allocations, backed for the rank's own span
// only) are one job per (rank, graph).
func BuildRankPlan(app *core.App, ranks int) *RankPlan {
	if ranks < 1 {
		ranks = 1
	}
	return BuildRankPlanLocal(app, ranks, Span{Lo: 0, Hi: ranks})
}

// BuildRankPlanLocal builds the plan of a process hosting only the
// local span of a ranks-wide run — a cluster worker's slice of a
// multi-process mesh. The global structures (per-rank spans, cross-rank
// edge lists) cover every rank, so transports can route to remote
// peers; the per-rank memory (payload rows, scratch working sets) is
// allocated for the local ranks only.
func BuildRankPlanLocal(app *core.App, ranks int, local Span) *RankPlan {
	if ranks < 1 {
		ranks = 1
	}
	local.Lo = max(local.Lo, 0)
	local.Hi = min(local.Hi, ranks)
	if local.Hi < local.Lo {
		local.Hi = local.Lo
	}
	p := &RankPlan{App: app, Ranks: ranks, Local: local}
	n := len(app.Graphs)
	p.spans = make([][]Span, n)
	p.index = make([]edgeIndex, n)
	p.routes = make([]routeTable, n)
	p.scratch = make([][]*kernels.Scratch, n)
	p.rows = make([][]*Rows, ranks)
	for r := range p.rows {
		p.rows[r] = make([]*Rows, n)
	}
	for gi, g := range app.Graphs {
		p.MaxSteps = max(p.MaxSteps, g.Timesteps)
		// Both kinds of job below read the span table.
		p.spans[gi] = BlockAssign(g.MaxWidth, ranks)
	}

	var jobs []func()
	for gi := range app.Graphs {
		gi := gi
		jobs = append(jobs, func() { p.fillGraph(gi) })
		for r := local.Lo; r < local.Hi; r++ {
			r := r
			jobs = append(jobs, func() {
				g := app.Graphs[gi]
				p.rows[r][gi] = newSpanRows(g.MaxWidth, p.spans[gi][r], g.OutputBytes)
			})
		}
	}
	workers := stdruntime.GOMAXPROCS(0)
	if app.TotalTasks() < buildParallelThreshold {
		// Same cutoff as BuildPlan: tiny apps are not worth the
		// fan-out.
		workers = 1
	}
	runJobs(workers, jobs)
	return p
}

// fillGraph computes the cross-rank edge index, compiled routes and
// scratch buffers of one graph.
func (p *RankPlan) fillGraph(gi int) {
	g := p.App.Graphs[gi]
	// Compile the dependence table up front: CrossEdges and the route
	// compiler read it here, so no rank's Step ever races through the
	// lazy build.
	g.PrecomputeDeps()
	var edges []Edge
	CrossEdges(g, p.Ranks, func(producer, consumer int) {
		edges = append(edges, Edge{Producer: producer, Consumer: consumer})
	})
	p.index[gi] = newEdgeIndex(edges)
	p.scratch[gi] = make([]*kernels.Scratch, g.MaxWidth)
	// Scratch working sets can be large and route lists grow with the
	// in-degree; build both only for the local columns.
	local := p.localColumns(gi)
	for i := local.Lo; i < local.Hi; i++ {
		p.scratch[gi][i] = kernels.NewScratch(g.ScratchBytes)
	}
	p.routes[gi] = compileRoutes(g, p.spans[gi], &p.index[gi], local)
}

// localColumns returns the columns of graph gi the plan's Local ranks
// execute: one contiguous span, because ranks own contiguous blocks.
func (p *RankPlan) localColumns(gi int) Span {
	if p.Local.Len() == 0 {
		return Span{}
	}
	return Span{Lo: p.spans[gi][p.Local.Lo].Lo, Hi: p.spans[gi][p.Local.Hi-1].Hi}
}

// LocalEdge is the Route.Edge of a dependence whose two ends share a
// rank: the payload is read from the rank's own previous row.
const LocalEdge = -1

// Route is one compiled hop of a task's dataflow. In a gather list Col
// is a producer column of the previous timestep and Edge the ring its
// payload arrives on, or LocalEdge; in a send list Col is a consumer
// column of the next timestep owned by another rank and Edge the ring
// to send on. Edge ids index RankPlan.Edges.
type Route struct {
	Col, Edge int32
}

// routeTable is one graph's compiled routing: for every (dependence
// set, local column) the gather list — PointDeps with the transport
// decision made — and the send list — PointConsumers filtered to other
// ranks — plus the per-timestep dependence set and active window they
// are selected and clipped by. It is what lets RunInto and SendOutputs
// run without a dependence query, an ownership test or an edge lookup.
type routeTable struct {
	width  int
	steps  []stepWindow
	gather routeLists
	sends  routeLists
}

// stepWindow is the dependence set in effect at a timestep and the
// timestep's active columns [off, off+width).
type stepWindow struct {
	dset, off, width int32
}

func (w stepWindow) contains(i int) bool {
	return i >= int(w.off) && i < int(w.off+w.width)
}

// routeLists stores the list of (dset, i) at
// arena[off[dset*width+i]:off[dset*width+i+1]], like core's depRel.
type routeLists struct {
	arena []Route
	off   []int32
}

// clipped returns list k cut down to the columns active in win. Lists
// ascend by column, so the survivors are one contiguous run and
// clipping is two end trims — no per-entry test on the hot path.
//
//taskbench:hotpath
func (l *routeLists) clipped(k int, win stepWindow) []Route {
	list := l.arena[l.off[k]:l.off[k+1]]
	for len(list) > 0 && list[0].Col < win.off {
		list = list[1:]
	}
	for len(list) > 0 && list[len(list)-1].Col >= win.off+win.width {
		list = list[:len(list)-1]
	}
	return list
}

// compileRoutes expands g's dependence table into route lists for the
// columns of local. One ascending sweep over the consumers fills both
// directions: a consumer's gather list directly, and — because
// consumers are visited in order — every producer's send list already
// sorted. Edge ids come from walking the consumer's run of the index
// in step with its producers, so nothing is searched.
func compileRoutes(g *core.Graph, spans []Span, ix *edgeIndex, local Span) routeTable {
	dt := g.Deps()
	w := g.MaxWidth
	sets := g.MaxDependenceSets()
	rt := routeTable{width: w, steps: make([]stepWindow, g.Timesteps)}
	for t := range rt.steps {
		rt.steps[t] = stepWindow{
			dset:  int32(g.DependenceSetAt(t)),
			off:   int32(g.OffsetAtTimestep(t)),
			width: int32(g.WidthAtTimestep(t)),
		}
	}
	rt.gather.off = make([]int32, sets*w+1)
	rt.sends.off = make([]int32, sets*w+1)
	sends := make([][]Route, local.Len())
	for dset := 0; dset < sets; dset++ {
		for k := range sends {
			sends[k] = sends[k][:0]
		}
		rank := 0
		for c := 0; c < w; c++ {
			for c >= spans[rank].Hi {
				rank++
			}
			own := spans[rank]
			id, end := ix.idBefore(c), ix.idBefore(c+1)
			for _, iv := range dt.Forward(dset, c) {
				for j := max(iv.First, 0); j <= min(iv.Last, w-1); j++ {
					edge := int32(LocalEdge)
					if j < own.Lo || j >= own.Hi {
						for id < end && ix.edges[id].Producer != j {
							id++
						}
						edge = int32(id)
						if j >= local.Lo && j < local.Hi {
							sends[j-local.Lo] = append(sends[j-local.Lo], Route{Col: int32(c), Edge: edge})
						}
					}
					if c >= local.Lo && c < local.Hi {
						rt.gather.arena = append(rt.gather.arena, Route{Col: int32(j), Edge: edge})
					}
				}
			}
			rt.gather.off[dset*w+c+1] = int32(len(rt.gather.arena))
		}
		for i := 0; i < w; i++ {
			if i >= local.Lo && i < local.Hi {
				rt.sends.arena = append(rt.sends.arena, sends[i-local.Lo]...)
			}
			rt.sends.off[dset*w+i+1] = int32(len(rt.sends.arena))
		}
	}
	return rt
}

// runJobs executes the jobs on a bounded pool of at most workers
// goroutines (spawning the jobs all at once would oversubscribe the
// scheduler), staying serial when workers or the job count is 1. It
// is the shared fan-out of BuildPlan and BuildRankPlan.
func runJobs(workers int, jobs []func()) {
	workers = min(workers, len(jobs))
	if workers <= 1 {
		for _, job := range jobs {
			job()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				jobs[k]()
			}
		}()
	}
	wg.Wait()
}

// Span returns the columns of graph gi owned by rank.
func (p *RankPlan) Span(gi, rank int) Span { return p.spans[gi][rank] }

// Edges returns graph gi's distinct cross-rank dependence edges,
// sorted by consumer then producer. An edge's position is its dense
// id: what Route.Edge holds and Transport addresses.
func (p *RankPlan) Edges(gi int) []Edge { return p.index[gi].edges }

// Gather returns the compiled input routes of task (t, i) of graph gi,
// one per dependence in PointDeps order: local producers read from the
// rank's previous row, remote ones received on the named edge. The
// result is a view into the plan; it is empty for columns outside the
// plan's Local ranks.
//
//taskbench:hotpath
func (p *RankPlan) Gather(gi, t, i int) []Route {
	rt := &p.routes[gi]
	if t <= 0 || t >= len(rt.steps) || !rt.steps[t].contains(i) {
		return nil
	}
	return rt.gather.clipped(int(rt.steps[t].dset)*rt.width+i, rt.steps[t-1])
}

// Sends returns the compiled output routes of task (t, i) of graph gi:
// its consumers at t+1 owned by other ranks, in PointConsumers order,
// each with the edge to send on. The result is a view into the plan;
// it is empty for columns outside the plan's Local ranks.
//
//taskbench:hotpath
func (p *RankPlan) Sends(gi, t, i int) []Route {
	rt := &p.routes[gi]
	if t < 0 || t+1 >= len(rt.steps) || !rt.steps[t].contains(i) {
		return nil
	}
	return rt.sends.clipped(int(rt.steps[t+1].dset)*rt.width+i, rt.steps[t+1])
}

// Rows returns rank's payload rows for graph gi.
func (p *RankPlan) Rows(rank, gi int) *Rows { return p.rows[rank][gi] }

// Scratch returns the persistent working set of graph gi's column i.
func (p *RankPlan) Scratch(gi, i int) *kernels.Scratch { return p.scratch[gi][i] }

// Reset makes the plan ready for another run by restoring every rank's
// payload rows to their home orientation. Spans and edge lists are
// immutable, transport queues drain themselves (every send of a run is
// matched by a receive, even on the error path, because ranks keep the
// protocol flowing after a failure), and scratch buffers persist by
// design — they model per-column working sets. Unlike Plan.Reset there
// is no O(tasks) walk to parallelize here: each Rows.Rehome is at most
// one pair of slice-header swaps, so the whole reset is
// O(ranks × graphs) regardless of graph size.
func (p *RankPlan) Reset() {
	for _, rows := range p.rows {
		for _, r := range rows {
			if r != nil {
				r.Rehome()
			}
		}
	}
}
