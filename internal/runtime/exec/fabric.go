package exec

import (
	"cmp"
	"fmt"
	"slices"

	"taskbench/internal/core"
)

// Edge is one dependence edge whose producer and consumer columns are
// owned by different ranks — the unit every rank transport (in-process
// fabric or wire mesh) allocates a slot ring for.
type Edge struct {
	Producer, Consumer int
}

// CrossEdges calls fn once per distinct dependence edge of g crossing
// a rank boundary under block distribution over the given rank count,
// ordered by consumer column and then producer column. It is the
// single edge enumeration shared by the in-process Fabric and the tcp
// backend's wire transport, which must agree exactly on which edges
// exist; an edge's position in this order is its dense edge id.
func CrossEdges(g *core.Graph, ranks int, fn func(producer, consumer int)) {
	dt := g.Deps()
	w := g.MaxWidth
	var producers []int
	for i := 0; i < w; i++ {
		consRank := OwnerOf(i, w, ranks)
		producers = producers[:0]
		for dset := 0; dset < g.MaxDependenceSets(); dset++ {
			for _, iv := range dt.Forward(dset, i) {
				for j := max(iv.First, 0); j <= min(iv.Last, w-1); j++ {
					if OwnerOf(j, w, ranks) != consRank {
						producers = append(producers, j)
					}
				}
			}
		}
		// Dependence sets overlap (spread rotates, fft strides), so one
		// producer can show up once per set.
		slices.Sort(producers)
		for _, j := range slices.Compact(producers) {
			fn(j, i)
		}
	}
}

// edgeIndex is the dense numbering of one graph's cross-rank edges:
// the distinct edges sorted by consumer then producer, an edge's id
// being its position. Lookup by columns is an offset load plus a
// binary search of the consumer's (short) producer run.
type edgeIndex struct {
	edges []Edge
	// start[c] is the id of consumer c's first edge; its run ends at
	// start[c+1]. Consumers beyond the last one with an edge have no
	// entry.
	start []int32
}

func newEdgeIndex(list []Edge) edgeIndex {
	edges := slices.Clone(list)
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Consumer, b.Consumer), cmp.Compare(a.Producer, b.Producer))
	})
	edges = slices.Compact(edges)
	ix := edgeIndex{edges: edges}
	if len(edges) == 0 {
		return ix
	}
	if e := edges[0]; e.Consumer < 0 || e.Producer < 0 {
		panic(fmt.Sprintf("exec: edge %d→%d has a negative column", e.Producer, e.Consumer))
	}
	ix.start = make([]int32, edges[len(edges)-1].Consumer+2)
	for _, e := range edges {
		ix.start[e.Consumer+1]++
	}
	for c := 1; c < len(ix.start); c++ {
		ix.start[c] += ix.start[c-1]
	}
	return ix
}

// idBefore returns the number of edges whose consumer column is below
// c, which is the id of the first edge of c's run: consumer c's edges
// are the ids [idBefore(c), idBefore(c+1)).
func (ix *edgeIndex) idBefore(c int) int {
	if c+1 >= len(ix.start) {
		return len(ix.edges)
	}
	return int(ix.start[max(c, 0)])
}

// id returns the dense id of the edge producer→consumer, or -1 when
// the graph has no such cross-rank edge.
//
//taskbench:hotpath
func (ix *edgeIndex) id(producer, consumer int) int {
	if consumer < 0 {
		return -1
	}
	lo, end := ix.idBefore(consumer), ix.idBefore(consumer+1)
	for hi := end; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if ix.edges[mid].Producer < producer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && ix.edges[lo].Producer == producer {
		return lo
	}
	return -1
}

// edgeCap bounds the messages in flight per edge, like MPI's eager
// buffers: a producer edgeCap timesteps ahead of a consumer parks. The
// value keeps memory bounded while never deadlocking: a parked send is
// always drained by a consumer that already has its own inputs (see
// the deadlock-freedom argument in DESIGN.md §2b).
const edgeCap = 4

// Fabric is the point-to-point communication substrate for rank-based
// backends (the analogs of MPI, PaRSEC and StarPU). Each dependence
// edge that crosses a rank boundary gets a dedicated slot ring, the Go
// rendering of "each task dependency maps to one send/receive pair in
// MPI" (paper §3.4). Messages on an edge are consumed in timestep
// order, so no tag matching is needed; payload headers are still
// validated by the core library.
//
// Rings are addressed by dense edge id (the engine's compiled routes
// carry ids) or by columns (an index lookup in front of the same
// rings). The tcp mesh builds its inbound side from the same type,
// restricted to the edges its process consumes.
type Fabric struct {
	graphs []fabricGraph
}

type fabricGraph struct {
	index edgeIndex
	// rings[k] serves edge id lo+k. An in-process fabric has a ring for
	// every edge (lo = 0); a mesh's inbound side only for the
	// contiguous id run of its local consumers.
	lo    int
	rings []Ring
}

// NewFabricFromEdges builds an in-process fabric over explicit
// cross-rank edge lists, one per graph, with edgeCap messages in
// flight per edge.
func NewFabricFromEdges(lists [][]Edge) *Fabric {
	f := &Fabric{graphs: make([]fabricGraph, len(lists))}
	for gi, list := range lists {
		ix := newEdgeIndex(list)
		f.graphs[gi] = newFabricGraph(ix, 0, len(ix.edges), edgeCap, nil)
	}
	return f
}

// NewFabric builds the rings of every edge of plan consumed by one of
// the plan's Local ranks, each holding up to capacity messages in
// flight. A non-nil done channel releases every parked Send and Recv
// when it closes (Recv then returns nil): a wire transport's teardown
// signal. The in-process engine passes nil.
func NewFabric(plan *RankPlan, capacity int, done <-chan struct{}) *Fabric {
	f := &Fabric{graphs: make([]fabricGraph, len(plan.index))}
	for gi := range plan.index {
		// Edges sort by consumer and the local columns are contiguous,
		// so the local consumers' edges are one contiguous id run.
		ix, local := plan.index[gi], plan.localColumns(gi)
		f.graphs[gi] = newFabricGraph(ix, ix.idBefore(local.Lo), ix.idBefore(local.Hi), capacity, done)
	}
	return f
}

func newFabricGraph(ix edgeIndex, lo, hi, capacity int, done <-chan struct{}) fabricGraph {
	g := fabricGraph{index: ix, lo: lo, rings: make([]Ring, hi-lo)}
	for k := range g.rings {
		g.rings[k].init(capacity, done)
	}
	return g
}

// Ring returns the slot ring of the edge producer→consumer of graph,
// or nil when the fabric has no such edge — the lookup a wire
// transport performs on routes that arrive off the network.
//
//taskbench:hotpath
func (f *Fabric) Ring(graph, producer, consumer int) *Ring {
	if graph < 0 || graph >= len(f.graphs) {
		return nil
	}
	g := &f.graphs[graph]
	k := g.index.id(producer, consumer) - g.lo
	if k < 0 || k >= len(g.rings) {
		return nil
	}
	return &g.rings[k]
}

// mustRing is Ring for in-process callers, where an unknown edge is a
// programmer error: it panics naming the edge instead of blocking on
// a queue that does not exist.
//
//taskbench:hotpath
func (f *Fabric) mustRing(graph, producer, consumer int) *Ring {
	r := f.Ring(graph, producer, consumer)
	if r == nil {
		panic(fmt.Sprintf("exec: fabric has no edge g%d %d→%d", graph, producer, consumer))
	}
	return r
}

// Send transmits a copy of payload along the edge producer→consumer.
// The copy models the network's ownership transfer: the producer is
// free to reuse its output buffer immediately.
//
//taskbench:hotpath
func (f *Fabric) Send(graph, producer, consumer int, payload []byte) {
	f.mustRing(graph, producer, consumer).send(payload)
}

// Recv blocks until the next message on the edge producer→consumer
// arrives and returns it. The returned bytes stay valid until the next
// Recv on the same edge.
//
//taskbench:hotpath
func (f *Fabric) Recv(graph, producer, consumer int) []byte {
	return f.mustRing(graph, producer, consumer).Recv()
}

// Recycle is a no-op kept for callers written against the free-list
// fabric: a received payload is a ring slot, released by the next Recv
// on its edge.
func (f *Fabric) Recycle(graph int, payload []byte) {}

// SendEdge implements Transport by dense edge id.
//
//taskbench:hotpath
func (f *Fabric) SendEdge(rank, graph, edge int, payload []byte) error {
	g := &f.graphs[graph]
	g.rings[edge-g.lo].send(payload)
	return nil
}

// RecvEdge implements Transport by dense edge id.
//
//taskbench:hotpath
func (f *Fabric) RecvEdge(graph, edge int) []byte {
	g := &f.graphs[graph]
	return g.rings[edge-g.lo].Recv()
}

// Err implements Transport; an in-process fabric cannot fail.
func (f *Fabric) Err() error { return nil }

// Close implements Transport; an in-process fabric holds no resources.
func (f *Fabric) Close() {}
