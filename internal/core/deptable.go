package core

// The compiled dependence table. Dependencies is a pure function of
// (dset, column) and MaxDependenceSets is small (at most Period or
// log2(width) sets), so the whole relation — forward and reverse — can
// be compiled once into flat interval arenas and served as O(1)
// allocation-free views. The naive per-call path allocates a fresh
// IntervalList in Dependencies and a second in clip for every query; at
// sub-100µs task granularities those per-task heap allocations are
// overhead the benchmark itself injects (§4), so every hot caller
// queries the table instead.

// DepTable is the compiled dependence relation of one Graph: for every
// (dependence set, column) pair, the forward relation (producer columns
// at t-1) and the reverse relation (consumer columns at t+1), stored
// back to back in shared interval arenas. Queries return views into the
// arenas and never allocate. Obtain with Graph.Deps.
type DepTable struct {
	width int
	sets  int
	fwd   depRel
	rev   depRel
	// Per-timestep precomputes, so per-task queries replace the
	// DependenceSetAt/WidthAtTimestep switches with two array loads.
	// dsetAt[t] is the dependence set in effect at timestep t, offAt[t]
	// and widthAt[t] the active window of timestep t.
	dsetAt  []int32
	offAt   []int32
	widthAt []int32
}

// depRel is one direction of the relation. arena holds every interval
// of every (dset, column) list contiguously; the list of (dset, i)
// occupies arena[off[dset*width+i]:off[dset*width+i+1]].
type depRel struct {
	arena []Interval
	off   []int32
}

func (r *depRel) list(width, dset, i int) IntervalList {
	k := dset*width + i
	lo, hi := r.off[k], r.off[k+1]
	return IntervalList(r.arena[lo:hi:hi])
}

// Forward returns the compiled forward relation at (dset, i): the
// producer columns of the previous timestep, clamped to [0, MaxWidth)
// like Dependencies but not clipped to any active window. The result
// is a view into the table's arena and must not be modified.
func (dt *DepTable) Forward(dset, i int) IntervalList {
	if dset < 0 || dset >= dt.sets || i < 0 || i >= dt.width {
		return nil
	}
	return dt.fwd.list(dt.width, dset, i)
}

// Reverse returns the compiled reverse relation at (dset, i): the
// consumer columns of the next timestep, the exact inverse of Forward.
// The result is a view into the table's arena and must not be modified.
func (dt *DepTable) Reverse(dset, i int) IntervalList {
	if dset < 0 || dset >= dt.sets || i < 0 || i >= dt.width {
		return nil
	}
	return dt.rev.list(dt.width, dset, i)
}

// Deps returns the graph's compiled dependence table, building it on
// first use. The fast path is a single atomic load (and inlines into
// per-query callers), so per-task callers (input validation, payload
// routing) pay no locking and no allocation.
func (g *Graph) Deps() *DepTable {
	dt := g.depTable.Load()
	if dt == nil {
		return g.depsSlow()
	}
	return dt
}

// depsSlow builds the table under the once guard, keeping the closure
// out of Deps so the fast path stays inlinable.
func (g *Graph) depsSlow() *DepTable {
	g.depOnce.Do(func() { g.depTable.Store(g.compileDeps()) })
	return g.depTable.Load()
}

// PrecomputeDeps compiles the dependence table eagerly. Plan builders
// call it before fanning out over columns so worker goroutines only
// read shared graph state.
func (g *Graph) PrecomputeDeps() { g.Deps() }

// compileDeps expands the forward relation from the reference
// Dependencies implementation and inverts it per dependence set. The
// inversion is independent of the lazy revTable build in graph.go, so
// the two paths cross-check each other (see TestDepTableMatchesReference).
func (g *Graph) compileDeps() *DepTable {
	sets := g.MaxDependenceSets()
	w := g.MaxWidth
	dt := &DepTable{width: w, sets: sets}

	dt.dsetAt = make([]int32, g.Timesteps)
	dt.offAt = make([]int32, g.Timesteps)
	dt.widthAt = make([]int32, g.Timesteps)
	for t := 0; t < g.Timesteps; t++ {
		dt.dsetAt[t] = int32(g.DependenceSetAt(t))
		dt.offAt[t] = int32(g.OffsetAtTimestep(t))
		dt.widthAt[t] = int32(g.WidthAtTimestep(t))
	}

	dt.fwd.off = make([]int32, sets*w+1)
	for dset := 0; dset < sets; dset++ {
		for i := 0; i < w; i++ {
			dt.fwd.arena = append(dt.fwd.arena, g.Dependencies(dset, i)...)
			dt.fwd.off[dset*w+i+1] = int32(len(dt.fwd.arena))
		}
	}

	// Invert each set. Scanning consumers j in ascending order appends
	// each producer's consumer list already sorted, so the lists
	// compress into maximal intervals directly.
	dt.rev.off = make([]int32, sets*w+1)
	consumers := make([][]int32, w)
	for dset := 0; dset < sets; dset++ {
		for i := range consumers {
			consumers[i] = consumers[i][:0]
		}
		for j := 0; j < w; j++ {
			for _, iv := range dt.fwd.list(w, dset, j) {
				for p := max(iv.First, 0); p <= min(iv.Last, w-1); p++ {
					consumers[p] = append(consumers[p], int32(j))
				}
			}
		}
		for i := 0; i < w; i++ {
			dt.rev.arena = appendIntervalsFromSorted(dt.rev.arena, consumers[i])
			dt.rev.off[dset*w+i+1] = int32(len(dt.rev.arena))
		}
	}
	return dt
}

// appendIntervalsFromSorted compresses a sorted, deduplicated point
// slice into intervals appended to arena.
func appendIntervalsFromSorted(arena []Interval, pts []int32) []Interval {
	for n := 0; n < len(pts); {
		first := int(pts[n])
		last := first
		n++
		for n < len(pts) && int(pts[n]) == last+1 {
			last = int(pts[n])
			n++
		}
		arena = append(arena, Interval{first, last})
	}
	return arena
}

// PointIter is an allocation-free cursor over the points of a clipped
// interval list — the compiled replacement for the
// DependenciesForPoint(...).ForEach(...) pattern, which allocates two
// IntervalLists per query and calls back through a closure per point.
// The zero value is an empty iterator. A PointIter is a value type:
// copy it freely, iterate with Next or NextSpan.
type PointIter struct {
	list   IntervalList
	lo, hi int // clip window, inclusive
	k      int // next interval index
	cur    int // next point of the current clipped interval
	end    int // one past the last point of the current clipped interval
}

// Next returns the next point, in ascending order. It does not inline
// (`go build -gcflags=-m=2` prices it above the budget of 80), so it is
// a call per point for its callers: Plan construction, serial and
// trace. Input validation does not use it; checkInputs walks the
// compiled list directly.
func (it *PointIter) Next() (int, bool) {
	p := it.cur
	if p < it.end {
		it.cur = p + 1
		return p, true
	}
	return it.nextSlow()
}

// nextSlow advances to the next non-empty clipped interval.
func (it *PointIter) nextSlow() (int, bool) {
	for it.k < len(it.list) {
		iv := it.list[it.k]
		it.k++
		cur := max(iv.First, it.lo)
		end := min(iv.Last, it.hi) + 1
		if cur < end {
			it.cur = cur + 1
			it.end = end
			return cur, true
		}
	}
	return 0, false
}

// NextSpan returns the next maximal run of points as an interval, for
// callers that work interval-at-a-time (ownership overlap tests). A
// partially consumed interval is returned in full remainder first;
// mixing Next and NextSpan on one iterator is allowed.
func (it *PointIter) NextSpan() (Interval, bool) {
	if it.cur < it.end {
		iv := Interval{it.cur, it.end - 1}
		it.cur = it.end
		return iv, true
	}
	for it.k < len(it.list) {
		raw := it.list[it.k]
		it.k++
		lo, hi := max(raw.First, it.lo), min(raw.Last, it.hi)
		if lo <= hi {
			return Interval{lo, hi}, true
		}
	}
	return Interval{}, false
}

// Count returns the number of points remaining without consuming them.
func (it *PointIter) Count() int {
	n := it.end - it.cur
	if n < 0 {
		n = 0
	}
	for _, iv := range it.list[it.k:] {
		lo, hi := max(iv.First, it.lo), min(iv.Last, it.hi)
		if lo <= hi {
			n += hi - lo + 1
		}
	}
	return n
}

// PointDeps returns an allocation-free iterator over the concrete
// dependencies of task (t, i) — the compiled counterpart of
// DependenciesForPoint, clipped to the active window of timestep t-1.
// The whole query is table lookups: no switches, no allocation.
func (g *Graph) PointDeps(t, i int) PointIter {
	dt := g.Deps()
	if t <= 0 || t >= len(dt.widthAt) || i < int(dt.offAt[t]) ||
		i >= int(dt.offAt[t])+int(dt.widthAt[t]) {
		return PointIter{}
	}
	k := int(dt.dsetAt[t])*dt.width + i
	off := int(dt.offAt[t-1])
	return PointIter{
		list: dt.fwd.arena[dt.fwd.off[k]:dt.fwd.off[k+1]],
		lo:   off,
		hi:   off + int(dt.widthAt[t-1]) - 1,
	}
}

// PointConsumers returns an allocation-free iterator over the concrete
// consumers of task (t, i) at timestep t+1 — the compiled counterpart
// of ReverseDependenciesForPoint.
func (g *Graph) PointConsumers(t, i int) PointIter {
	dt := g.Deps()
	if t < 0 || t+1 >= len(dt.widthAt) || i < int(dt.offAt[t]) ||
		i >= int(dt.offAt[t])+int(dt.widthAt[t]) {
		return PointIter{}
	}
	k := int(dt.dsetAt[t+1])*dt.width + i
	off := int(dt.offAt[t+1])
	return PointIter{
		list: dt.rev.arena[dt.rev.off[k]:dt.rev.off[k+1]],
		lo:   off,
		hi:   off + int(dt.widthAt[t+1]) - 1,
	}
}
