package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"taskbench/internal/core"
)

// Edge is one dependence edge whose producer and consumer columns are
// owned by different ranks — the unit every rank transport (in-process
// fabric or wire mesh) allocates payload slots for.
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

// EdgeCap bounds how far a producer rank may run ahead of a consumer,
// in timesteps, like MPI's eager buffers: a producer about to fill its
// step s (s steps flushed) parks until the consumer has acknowledged
// s+1-EdgeCap steps.
// Every cross-rank edge therefore holds EdgeCap+1 payload slots — the
// EdgeCap steps in flight plus the one the consumer holds. The bound
// keeps memory fixed while never deadlocking (see the argument in
// DESIGN.md §2b). Both transports share it: the in-process fabric
// enforces it at each Flush, the tcp mesh's demultiplexers before
// writing a frame's payloads.
const EdgeCap = 4

// Fabric is the point-to-point communication substrate for rank-based
// backends (the analogs of MPI, PaRSEC and StarPU). Each dependence
// edge that crosses a rank boundary gets dedicated payload slots, the
// Go rendering of "each task dependency maps to one send/receive pair
// in MPI" (paper §3.4): a send copies into the edge's next slot and a
// receive returns the slot, in timestep order, so no tag matching is
// needed; payload headers are still validated by the core library.
//
// What is shared is the synchronisation. Each (producer rank →
// consumer rank) pair has one sequencer of two monotonic counters:
// steps published by the producer and steps acknowledged by the
// consumer, each stored once per Flush. A rank that has flushed k steps
// receives what its producers sent in their step k-1, so it needs k
// steps published on the pair; a producer filling its step s needs
// s+1-EdgeCap steps acknowledged on each pair it produces. So a message
// itself pays no atomic store, no flag check and no division — only the
// slot copy and two plain wrapping indices.
//
// Edges are addressed by dense edge id, the one name the engine's
// routes and the tcp mesh's frames carry; the mesh builds its inbound
// side from the same type, restricted to the edges its process
// consumes, and stands in for each remote producer through an Inlet.
// Send, Recv and Recycle by columns are adapters for bench/layers.go.
type Fabric struct {
	graphs []fabricGraph
	pairs  []pair
	// ranks[r] lists the pairs rank r produces and consumes, and counts
	// its flushes.
	ranks  []rankPairs
	closed atomic.Bool
}

type fabricGraph struct {
	index edgeIndex
	// edges[k] serves edge id lo+k. An in-process fabric has slots for
	// every edge (lo = 0); a mesh's inbound side only for the contiguous
	// id run of its local consumers.
	lo    int
	edges []edgeSlots
}

// edgeSlots is one cross-rank edge: EdgeCap+1 payload slots used as a
// ring. tail is the producer side's next slot to fill and head the
// consumer side's next slot to read; both are plain, because the
// pair's counters order every access to a slot. 128 bytes, so edges
// tile in whole lines.
type edgeSlots struct {
	// slots are allocated by the producer side on first use.
	slots [EdgeCap + 1][]byte
	pair  int32
	tail  uint8
	head  uint8
}

// next returns the slot the producer side fills next, sized to n
// bytes, and moves past it.
func (e *edgeSlots) next(n int) []byte {
	i := e.tail
	buf := e.slots[i]
	if len(buf) != n {
		if cap(buf) < n {
			buf = make([]byte, n) // slot growth: each slot is allocated on its first use, then reused
		}
		buf = buf[:n]
		e.slots[i] = buf
	}
	if i++; i == EdgeCap+1 {
		i = 0
	}
	e.tail = i
	return buf
}

// take returns the slot the consumer side reads next and moves past
// it.
func (e *edgeSlots) take() []byte {
	i := e.head
	buf := e.slots[i]
	if i++; i == EdgeCap+1 {
		i = 0
	}
	e.head = i
	return buf
}

// pair is the sequencer of one (producer rank → consumer rank) pair.
// The two counters sit on separate 128-byte lines (the PlannedTask
// precedent: two cache lines, covering the adjacent-line prefetcher),
// each beside the gate its writer's peer parks on.
type pair struct {
	pairProducer
	_ [(128 - unsafe.Sizeof(pairProducer{})%128) % 128]byte
	pairConsumer
	_ [(128 - unsafe.Sizeof(pairConsumer{})%128) % 128]byte
}

// pairProducer is the line the producer side writes.
type pairProducer struct {
	// pub counts the producer's steps whose payloads are all in their
	// slots.
	pub atomic.Uint64
	// ackWait is where the producer side parks for ack.
	ackWait gate
	// from and to name the pair in diagnostics.
	from, to int32
}

// pairConsumer is the line the consumer side writes.
type pairConsumer struct {
	// ack counts the consumer's steps done with their inputs.
	ack atomic.Uint64
	// pubWait is where the consumer rank's threads park for pub.
	pubWait gate
}

type rankPairs struct {
	// steps counts the rank's flushes; only the goroutine driving the
	// rank touches it.
	steps   uint64
	out, in []int32
}

// gate parks the threads waiting for a counter to reach a value:
// raise the waiting flag, re-check, block. The counter's writer stores,
// then looks at the flag and wakes every parked thread if it is
// raised. Go's atomics are sequentially consistent, so of "flag store,
// counter load" and "counter store, flag load" at least one side sees
// the other and no wake-up is lost. There are no spin-waits — the
// benchmark runs on one P — and the mutex is taken only on the way
// into or out of a park.
type gate struct {
	waiting atomic.Uint32
	mu      sync.Mutex
	cond    sync.Cond
	// parked counts the threads blocked in cond, for diagnostics.
	parked int
}

// await parks until v reaches want, or returns false once closed is
// set. Kept out of line so the fast paths that call it stay short.
//
//go:noinline
func (g *gate) await(v *atomic.Uint64, want uint64, closed *atomic.Bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		g.waiting.Store(1)
		if v.Load() >= want {
			return true
		}
		if closed.Load() {
			return false
		}
		g.parked++
		g.cond.Wait()
		g.parked--
	}
}

// notify wakes every thread parked on g, after a store to the counter
// they wait on. Several threads of one rank (hybrid's) may be parked
// on one pair, so a single wake-up token would strand the rest.
func (g *gate) notify() {
	if g.waiting.Load() != 0 {
		g.wake()
	}
}

//go:noinline
func (g *gate) wake() {
	g.mu.Lock()
	g.waiting.Store(0)
	g.mu.Unlock()
	g.cond.Broadcast()
}

// NewFabricFromEdges builds an in-process fabric over explicit
// cross-rank edge lists, one per graph. With no ranks to group them,
// every edge is a pair of its own, named by its columns. Kept for
// bench/layers.go until ROADMAP 1(d).
func NewFabricFromEdges(lists [][]Edge) *Fabric {
	f := &Fabric{graphs: make([]fabricGraph, len(lists))}
	var ends [][2]int32
	for gi, list := range lists {
		ix := newEdgeIndex(list)
		g := fabricGraph{index: ix, edges: make([]edgeSlots, len(ix.edges))}
		for k, e := range ix.edges {
			g.edges[k].pair = int32(len(ends))
			ends = append(ends, [2]int32{int32(e.Producer), int32(e.Consumer)})
		}
		f.graphs[gi] = g
	}
	f.initPairs(ends)
	return f
}

// NewFabric builds the slots of every edge of plan consumed by one of
// the plan's Local ranks, and a sequencer for every rank pair those
// edges join.
func NewFabric(plan *RankPlan) *Fabric {
	f := &Fabric{graphs: make([]fabricGraph, len(plan.index)), ranks: make([]rankPairs, plan.Ranks)}
	ids := map[[2]int32]int32{}
	var ends [][2]int32
	for gi := range plan.index {
		// Edges sort by consumer and the local columns are contiguous,
		// so the local consumers' edges are one contiguous id run.
		ix, local := plan.index[gi], plan.localColumns(gi)
		lo, hi := ix.idBefore(local.Lo), ix.idBefore(local.Hi)
		g := fabricGraph{index: ix, lo: lo, edges: make([]edgeSlots, hi-lo)}
		w := plan.App.Graphs[gi].MaxWidth
		for k := range g.edges {
			e := ix.edges[lo+k]
			key := [2]int32{int32(OwnerOf(e.Producer, w, plan.Ranks)), int32(OwnerOf(e.Consumer, w, plan.Ranks))}
			id, ok := ids[key]
			if !ok {
				id = int32(len(ends))
				ids[key] = id
				ends = append(ends, key)
				f.ranks[key[0]].out = append(f.ranks[key[0]].out, id)
				f.ranks[key[1]].in = append(f.ranks[key[1]].in, id)
			}
			g.edges[k].pair = id
		}
		f.graphs[gi] = g
	}
	f.initPairs(ends)
	return f
}

func (f *Fabric) initPairs(ends [][2]int32) {
	f.pairs = make([]pair, len(ends))
	for k := range f.pairs {
		p := &f.pairs[k]
		p.from, p.to = ends[k][0], ends[k][1]
		p.ackWait.cond.L = &p.ackWait.mu
		p.pubWait.cond.L = &p.pubWait.mu
	}
}

// edge returns graph's edge id edge, or nil unless graph is in range
// and this fabric holds that id — the check a wire transport makes on
// routes that arrive off the network.
func (f *Fabric) edge(graph, edge int) *edgeSlots {
	if graph >= 0 && graph < len(f.graphs) {
		if g := &f.graphs[graph]; edge >= g.lo && edge-g.lo < len(g.edges) {
			return &g.edges[edge-g.lo]
		}
	}
	return nil
}

// awaitPub parks a thread of p's consumer rank until p's producer has
// published k steps.
func (f *Fabric) awaitPub(p *pair, k uint64) bool {
	return p.pubWait.await(&p.pub, k, &f.closed)
}

// reserve parks p's producer side until p's consumer has acknowledged
// enough steps for the producer to fill the step whose publication
// will read steps: every step up to steps-EdgeCap.
func (f *Fabric) reserve(p *pair, steps uint64) bool {
	if steps > EdgeCap && p.ack.Load() < steps-EdgeCap {
		return p.ackWait.await(&p.ack, steps-EdgeCap, &f.closed)
	}
	return true
}

// SendEdge implements Transport by dense edge id. It copies payload,
// as a network would: the producer may reuse its buffer at once. The
// payload becomes receivable at rank's next Flush.
func (f *Fabric) SendEdge(rank, graph, edge int, payload []byte) error {
	g := &f.graphs[graph]
	copy(g.edges[edge-g.lo].next(len(payload)), payload)
	return nil
}

// RecvEdge receives by dense edge id; the rank engine's gather calls
// it directly for every remote input, whatever the Transport (see
// Transport). At its consumer rank's k-th step (k flushes done) it
// returns the edge's payload of the producer's step k-1, parking until
// that step is published. The bytes stay valid until the consumer
// rank's next Flush, so a caller must be done with one payload of an
// edge before its rank ends the step — which every policy does.
func (f *Fabric) RecvEdge(graph, edge int) []byte {
	g := &f.graphs[graph]
	e := &g.edges[edge-g.lo]
	p := &f.pairs[e.pair]
	// ack is the consumer rank's own flush count.
	if k := p.ack.Load(); p.pub.Load() < k && !f.awaitPub(p, k) {
		return nil
	}
	return e.take()
}

// Flush implements Transport: it ends rank's step. It publishes the
// step on every pair rank produces and acknowledges it on every pair
// rank consumes — every one, whether or not it carried a message this
// step, or a sparse pair's producer would wait on an acknowledgement
// that only its own next message could bring. Then it parks until
// rank's next step is within EdgeCap of each consumer.
func (f *Fabric) Flush(rank int) error {
	f.publish(rank)
	f.reserveStep(rank)
	return nil
}

// publish is Flush without the wait: it counts one more step of rank,
// publishes it on every pair rank produces and acknowledges it on
// every pair rank consumes.
func (f *Fabric) publish(rank int) {
	r := &f.ranks[rank]
	r.steps++
	s := r.steps
	for _, id := range r.out {
		p := &f.pairs[id]
		p.pub.Store(s)
		p.pubWait.notify()
	}
	f.ack(r.in, s)
}

// reserveStep parks until rank's next step is within EdgeCap of each
// consumer, so the step's slots are free.
func (f *Fabric) reserveStep(rank int) {
	r := &f.ranks[rank]
	for _, id := range r.out {
		if !f.reserve(&f.pairs[id], r.steps+1) {
			return
		}
	}
}

// ready reports whether rank's next step can run without waiting:
// every pair it consumes has published the step, and reserveStep would
// not park.
func (f *Fabric) ready(rank int) bool {
	r := &f.ranks[rank]
	k := r.steps
	for _, id := range r.in {
		if f.pairs[id].pub.Load() < k {
			return false
		}
	}
	if k+1 > EdgeCap {
		for _, id := range r.out {
			if f.pairs[id].ack.Load() < k+1-EdgeCap {
				return false
			}
		}
	}
	return true
}

func (f *Fabric) ack(in []int32, s uint64) {
	for _, id := range in {
		p := &f.pairs[id]
		p.ack.Store(s)
		p.ackWait.notify()
	}
}

// Ack is the consumer half of Flush, for a wire transport whose
// demultiplexers publish on the producers' behalf: it counts one more
// step of rank, acknowledges it on every pair rank consumes, and
// returns the new count.
func (f *Fabric) Ack(rank int) uint64 {
	r := &f.ranks[rank]
	r.steps++
	f.ack(r.in, r.steps)
	return r.steps
}

// Steps returns how many steps rank has flushed.
func (f *Fabric) Steps(rank int) uint64 { return f.ranks[rank].steps }

// Inlet is the producer side of one rank pair of a Fabric, for a wire
// transport's demultiplexer standing in for a remote producer rank. A
// nil Inlet is a pair with no edges: it has no slots, and reserving or
// publishing on it does nothing.
type Inlet struct {
	f  *Fabric
	p  *pair
	id int32
}

// Inlet returns the producer side of the pair from → to, or nil when
// no edge of this fabric joins them.
func (f *Fabric) Inlet(from, to int) *Inlet {
	if to >= 0 && to < len(f.ranks) {
		for _, id := range f.ranks[to].in {
			if p := &f.pairs[id]; int(p.from) == from {
				return &Inlet{f: f, p: p, id: id}
			}
		}
	}
	return nil
}

// Reserve parks until the consumer has acknowledged enough steps for
// the slots of the producer step that publishing steps closes to be
// free. It returns false when the fabric closed while parked.
func (in *Inlet) Reserve(steps uint64) bool {
	return in == nil || in.f.reserve(in.p, steps)
}

// Slot returns the next slot of graph's edge id edge, sized to n
// bytes, for the caller to fill; nil unless the edge is one of this
// pair's.
func (in *Inlet) Slot(graph, edge, n int) []byte {
	if in == nil {
		return nil
	}
	if e := in.f.edge(graph, edge); e != nil && e.pair == in.id {
		return e.next(n)
	}
	return nil
}

// Edges returns how many of graph's edges join the pair: the most
// payloads of that graph one step of the pair can carry.
func (in *Inlet) Edges(graph int) int {
	n := 0
	if in != nil {
		for k := range in.f.graphs[graph].edges {
			if in.f.graphs[graph].edges[k].pair == in.id {
				n++
			}
		}
	}
	return n
}

// Publish makes every slot filled so far receivable by the consumer
// rank's threads at steps up to steps.
func (in *Inlet) Publish(steps uint64) {
	if in != nil {
		in.p.pub.Store(steps)
		in.p.pubWait.notify()
	}
}

// mustEdge is edge by columns for the adapters, where an unknown edge
// is a programmer error: it panics naming the edge instead of blocking
// on slots that do not exist.
func (f *Fabric) mustEdge(graph, producer, consumer int) (*edgeSlots, *pair) {
	var e *edgeSlots
	if graph >= 0 && graph < len(f.graphs) {
		e = f.edge(graph, f.graphs[graph].index.id(producer, consumer))
	}
	if e == nil {
		panic(fmt.Sprintf("exec: fabric has no edge g%d %d→%d", graph, producer, consumer))
	}
	return e, &f.pairs[e.pair]
}

// Send is SendEdge addressed by columns, with per-message semantics:
// the payload is one step of its pair, published at once, so Recv
// takes it without any Flush. A pair driven by the adapters must not
// also be flushed. Kept for bench/layers.go until ROADMAP 1(d).
func (f *Fabric) Send(graph, producer, consumer int, payload []byte) {
	e, p := f.mustEdge(graph, producer, consumer)
	s := p.pub.Load() + 1
	if f.reserve(p, s) {
		copy(e.next(len(payload)), payload)
		p.pub.Store(s)
		p.pubWait.notify()
	}
}

// Recv is RecvEdge addressed by columns, with per-message semantics:
// it takes the pair's next step and acknowledges it, releasing the slot
// of the message before. Kept for bench/layers.go until ROADMAP 1(d).
func (f *Fabric) Recv(graph, producer, consumer int) []byte {
	e, p := f.mustEdge(graph, producer, consumer)
	k := p.ack.Load() + 1
	if p.pub.Load() < k && !f.awaitPub(p, k) {
		return nil
	}
	buf := e.take()
	p.ack.Store(k)
	p.ackWait.notify()
	return buf
}

// Recycle is a no-op: a slot is released by its pair's acknowledgement.
// Kept for bench/layers.go until ROADMAP 1(d).
func (f *Fabric) Recycle(graph int, payload []byte) {}

// Err implements Transport; an in-process fabric cannot fail.
func (f *Fabric) Err() error { return nil }

// Close implements Transport. It releases every parked receive (which
// returns nil) and every parked reservation; payloads already published
// stay receivable. A wire transport closes its inbound fabric on
// teardown.
func (f *Fabric) Close() {
	f.closed.Store(true)
	for k := range f.pairs {
		f.pairs[k].ackWait.release()
		f.pairs[k].pubWait.release()
	}
}

func (g *gate) release() {
	g.mu.Lock()
	g.mu.Unlock()
	g.cond.Broadcast()
}

// String reports every pair's counters and parked threads, for a test
// that has hit its deadline.
func (f *Fabric) String() string {
	var b strings.Builder
	for k := range f.pairs {
		p := &f.pairs[k]
		fmt.Fprintf(&b, "pair %d→%d: published %d, acknowledged %d, %d consumer and %d producer threads parked\n",
			p.from, p.to, p.pub.Load(), p.ack.Load(), p.pubWait.parkedNow(), p.ackWait.parkedNow())
	}
	return b.String()
}

func (g *gate) parkedNow() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parked
}
