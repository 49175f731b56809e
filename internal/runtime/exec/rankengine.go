package exec

import (
	"fmt"
	stdruntime "runtime"
	"sync"

	"taskbench/internal/core"
)

// Transport is the messaging substrate a RankEngine moves cross-rank
// payloads over, addressed by dense edge id: the index into
// RankPlan.Edges(graph) that the plan's compiled routes carry. The
// in-process Fabric is the default; the tcp backend substitutes a real
// wire transport via RankTransporter.
//
// The timestep is the unit of synchronisation: a payload sent during a
// rank's step becomes receivable once the rank has flushed that step,
// and a receive at a rank's step k (after k flushes) takes the payload
// its producer sent at step k-1. That is every policy's shape, since
// dependencies span consecutive timesteps.
//
// Receiving is not part of the interface: every transport delivers
// into a Fabric, and the engine's gather reads that fabric directly
// (Fabric.RecvEdge), with no interface call per input. The in-process
// Fabric receives from itself; any other transport must expose the
// fabric it fills through an Inbound method (see NewLocalRankEngine).
type Transport interface {
	// SendEdge transmits payload along the edge. rank identifies the
	// sending rank, for transports that route by connection.
	SendEdge(rank, graph, edge int, payload []byte) error
	// Flush ends rank's step: it publishes every payload rank sent
	// during the step and acknowledges every payload it received. The
	// engine calls it on the goroutine driving the rank, once per step,
	// after Step or from inside Barrier.
	Flush(rank int) error
	// Err reports any asynchronous transport failure observed so far.
	Err() error
	// Close releases transport resources.
	Close()
}

// RankLayout is a policy's rank/thread decomposition of an app.
type RankLayout struct {
	// Ranks is the number of communicating address-space analogs.
	Ranks int
	// Threads is the number of intra-rank workers (hybrid's OpenMP
	// threads); 1 for the pure message-passing paradigms.
	Threads int
}

// Workers is the total worker count the layout occupies, recorded in
// run statistics.
func (l RankLayout) Workers() int { return l.Ranks * l.Threads }

// FlatLayout is the pure message-passing decomposition: one
// single-threaded rank per worker.
func FlatLayout(app *core.App) RankLayout {
	return RankLayout{Ranks: WorkersFor(app), Threads: 1}
}

// RankPolicy expresses one message-passing paradigm over the shared
// RankEngine. The engine owns everything every rank-based backend has
// in common — driving the ranks, transport construction and reuse,
// per-rank column ownership, barrier lifecycle, payload row
// buffering, and first-error capture — and delegates only the
// paradigm itself: how one rank enumerates and communicates one
// timestep. Each backend registered with runtime.RegisterRanks is one
// RankPolicy of a few dozen lines, a Layout over another's Step, or
// another backend's policy as is.
//
// A RankPolicy is used by one RankEngine at a time. Step is called
// concurrently for ranks on different drivers; per-rank policy state
// must be indexed by rc.Rank.
type RankPolicy interface {
	// Layout picks the rank/thread decomposition for an app, before
	// the RankPlan is built.
	Layout(app *core.App) RankLayout

	// Step executes timestep t across every graph for one rank: the
	// policy decides enumeration order, communication discipline and
	// phase structure, using the RankCtx helpers for everything
	// shared. Step runs for every rank at every timestep, including
	// steps where the rank owns no work, so barrier-phased policies
	// stay aligned.
	Step(rc *RankCtx, t int)
}

// RankTransporter is an optional RankPolicy extension that replaces
// the in-process Fabric with the policy's own messaging substrate
// (tcp's wire mesh). NewRankEngine invokes it once at construction;
// the engine owns the returned transport and Closes it.
type RankTransporter interface {
	OpenTransport(plan *RankPlan) (Transport, error)
}

// RankCtx is one rank's execution context: its identity, its slice of
// every graph, and the shared-substrate helpers (gather, execute,
// send, flip, barrier) every policy composes its paradigm from.
type RankCtx struct {
	// Rank identifies this context in [0, plan.Ranks).
	Rank int

	engine   *RankEngine
	in       [][]byte // reusable gather buffer
	validate bool
	firstErr *ErrOnce
	// t is the rank's next timestep of the current run.
	t int
	// atBarrier records that the rank's step ended in Barrier, which
	// flushed it; the rank waits for its driver's barrier round.
	atBarrier bool
}

func (rc *RankCtx) plan() *RankPlan { return rc.engine.plan }

// Graphs returns the number of graphs in the app.
func (rc *RankCtx) Graphs() int { return len(rc.plan().App.Graphs) }

// Graph returns graph gi.
func (rc *RankCtx) Graph(gi int) *core.Graph { return rc.plan().App.Graphs[gi] }

// Span returns the columns of graph gi this rank owns.
func (rc *RankCtx) Span(gi int) Span { return rc.plan().Span(gi, rc.Rank) }

// Threads returns the intra-rank worker count of the engine's layout.
func (rc *RankCtx) Threads() int { return rc.engine.threads }

// Active reports whether graph gi has a timestep t.
func (rc *RankCtx) Active(gi, t int) bool { return t < rc.Graph(gi).Timesteps }

// Window returns this rank's owned slice [lo, hi) of graph gi's active
// window at timestep t; the slice may be empty.
func (rc *RankCtx) Window(gi, t int) (lo, hi int) {
	g := rc.Graph(gi)
	span := rc.Span(gi)
	off := g.OffsetAtTimestep(t)
	return max(span.Lo, off), min(span.Hi, off+g.WidthAtTimestep(t))
}

// Cur returns the output buffer of column i of graph gi in the current
// timestep.
func (rc *RankCtx) Cur(gi, i int) []byte { return rc.plan().Rows(rc.Rank, gi).Cur(i) }

// Flip swaps graph gi's payload rows at the end of a timestep.
func (rc *RankCtx) Flip(gi int) { rc.plan().Rows(rc.Rank, gi).Flip() }

// Barrier ends the step at the global barrier of the bulk-synchronous
// paradigm: no rank of the engine starts its next step until every
// rank has reached it. A policy either calls it on every rank at every
// timestep or not at all, as the step's last act. It flushes the step
// and returns; the rank's driver waits at the barrier once all of its
// ranks have arrived. Flushing first means no rank leaves the barrier
// to park on a peer's step that the peer has not yet published.
func (rc *RankCtx) Barrier() {
	rc.flush()
	rc.atBarrier = true
}

// flush ends the rank's step on the transport, capturing a failure as
// the run's first error. On the engine's own fabric the step is only
// published: its driver reserves the next step's slots before running
// it (see drive).
func (rc *RankCtx) flush() {
	if f := rc.engine.fabric; f != nil {
		f.publish(rc.Rank)
		return
	}
	if err := rc.engine.transport.Flush(rc.Rank); err != nil {
		rc.firstErr.Set(err)
	}
}

// send transmits payload along edge (a route.Edge of graph gi),
// capturing transport failures as the run's first error.
func (rc *RankCtx) send(gi, edge int, payload []byte) {
	if err := rc.engine.transport.SendEdge(rc.Rank, gi, edge, payload); err != nil {
		rc.firstErr.Set(err)
	}
}

// Run executes owned task (t, i) of graph gi — gather local inputs
// from the previous row and remote ones from the transport, execute,
// capture errors — and returns the output buffer. Not safe for
// concurrent calls within one rank (it shares the rank's gather
// buffer); intra-rank threads use RunInto with their own buffers.
func (rc *RankCtx) Run(gi, t, i int) []byte {
	var out []byte
	rc.in, out = rc.RunInto(rc.in, gi, t, i)
	return out
}

// RunInto is Run with a caller-owned gather buffer, for policies that
// execute a rank's tasks on several goroutines. It returns the reused
// buffer and the task's output. The gather walks the plan's compiled
// routes: no dependence query, ownership test or edge lookup happens
// per input, and received payloads need no hand-back (the transport
// reclaims them when the rank flushes its step).
func (rc *RankCtx) RunInto(inputs [][]byte, gi, t, i int) ([][]byte, []byte) {
	plan := rc.plan()
	rows := plan.Rows(rc.Rank, gi)
	f := rc.engine.inbound
	inputs = inputs[:0]
	for _, in := range plan.gather(gi, t, i) {
		if in.Edge == localEdge {
			inputs = append(inputs, rows.Prev(int(in.Col))) // grows to the max in-degree once, then reuses capacity
		} else {
			inputs = append(inputs, f.RecvEdge(gi, int(in.Edge)))
		}
	}
	return inputs, rc.execWith(gi, t, i, inputs)
}

// execWith executes task (t, i) of graph gi with explicitly gathered
// inputs, writing into the current row. On failure it records the
// run's first error but still publishes a valid output, keeping the
// protocol flowing so peer ranks do not deadlock on missing sends.
// Once the run has failed, remaining tasks skip kernel execution
// entirely: the schedule drains at wire speed (outputs are still
// published for peers) instead of burning kernel time on doomed work —
// which is what lets a job on a dead cluster peer fail in milliseconds
// rather than after the full busy-wait schedule.
func (rc *RankCtx) execWith(gi, t, i int, inputs [][]byte) []byte {
	g := rc.Graph(gi)
	out := rc.plan().Rows(rc.Rank, gi).Cur(i)
	if rc.firstErr.Failed() {
		g.WriteOutput(t, i, out)
		return out
	}
	err := g.ExecutePoint(t, i, out, inputs, rc.plan().Scratch(gi, i), rc.validate)
	if err != nil {
		rc.firstErr.Set(err)
		g.WriteOutput(t, i, out)
	}
	return out
}

// SendOutputs sends task (t, i)'s output to every consumer in the next
// timestep owned by a different rank, along the plan's compiled send
// routes.
func (rc *RankCtx) SendOutputs(gi, t, i int, out []byte) {
	for _, to := range rc.plan().sends(gi, t, i) {
		rc.send(gi, int(to.Edge), out)
	}
}

// RankEngine executes a RankPlan under a pluggable RankPolicy. It owns
// the parts every rank-based backend previously duplicated: driving
// the ranks, transport construction and reuse, per-rank column
// ownership, barrier lifecycle, payload row buffering, and first-error
// capture. An engine may be reused: a caller holding a Reset RankPlan
// can rerun it without rewiring the fabric (see RankSession).
type RankEngine struct {
	plan      *RankPlan
	policy    RankPolicy
	threads   int
	local     Span // ranks hosted by this engine (all of them in-process)
	transport Transport
	// fabric is the transport when it is an in-process Fabric, whose
	// ranks can share a driver; nil for a wire transport.
	fabric *Fabric
	// inbound is the Fabric remote inputs are received from: fabric, or
	// the one a wire transport delivers into.
	inbound *Fabric
	barrier *barrier
	ctxs    []*RankCtx
}

// NewRankEngine builds an engine over plan with the given policy and
// intra-rank thread count. Transport construction (RankTransporter,
// defaulting to the in-process Fabric over the plan's edge index)
// happens here, outside any timed region.
func NewRankEngine(plan *RankPlan, policy RankPolicy, threads int) (*RankEngine, error) {
	transporter, ok := policy.(RankTransporter)
	if !ok {
		return NewLocalRankEngine(plan, policy, threads, NewFabric(plan)), nil
	}
	transport, err := transporter.OpenTransport(plan)
	if err != nil {
		return nil, err
	}
	return NewLocalRankEngine(plan, policy, threads, transport), nil
}

// NewLocalRankEngine builds an engine hosting only the plan's Local
// rank span, moving cross-rank payloads over an externally supplied
// transport — a cluster worker's slice of a multi-process run whose
// remaining ranks live in other processes. The transport is either a
// *Fabric, which receives from itself, or delivers into one that it
// returns from an Inbound() *Fabric method (tcp's MeshTransport); any
// other transport panics here. The engine owns the transport and
// Closes it. Policies driven this way must be barrier-free: the cyclic
// barrier cannot span processes, so only the local ranks' drivers take
// part in it.
func NewLocalRankEngine(plan *RankPlan, policy RankPolicy, threads int, transport Transport) *RankEngine {
	if threads < 1 {
		threads = 1
	}
	e := &RankEngine{
		plan:      plan,
		policy:    policy,
		threads:   threads,
		local:     plan.Local,
		transport: transport,
		barrier:   newBarrier(plan.Local.Len()),
	}
	switch tr := transport.(type) {
	case *Fabric:
		e.fabric, e.inbound = tr, tr
	case interface{ Inbound() *Fabric }:
		e.inbound = tr.Inbound()
	default:
		panic(fmt.Sprintf("exec: transport %T delivers into no Fabric", transport))
	}
	e.ctxs = make([]*RankCtx, plan.Ranks)
	for r := e.local.Lo; r < e.local.Hi; r++ {
		e.ctxs[r] = &RankCtx{Rank: r, engine: e}
	}
	return e
}

// Run executes every locally hosted task of the plan once and returns
// the first validation or transport error. Even on error every rank
// completes its schedule (validation is skipped after the first
// failure), so the transport always drains. Call Plan.Reset before
// running again.
//
// The ranks run on drivers, goroutines that each own a contiguous
// block of ranks. Over the engine's own Fabric there are
// min(local ranks, GOMAXPROCS) of them, read at every Run, so ranks
// that cannot run in parallel hand each other no P: a driver steps
// whichever of its ranks can run without waiting (see drive). A wire
// transport keeps one driver per rank, since a rank waiting on a
// demultiplexer must not hold up the ranks beside it.
func (e *RankEngine) Run(validate bool) error {
	firstErr := &ErrOnce{}
	for r := e.local.Lo; r < e.local.Hi; r++ {
		rc := e.ctxs[r]
		rc.validate = validate
		rc.firstErr = firstErr
		rc.t = 0
	}
	ranks := e.local.Len()
	drivers := ranks
	if e.fabric != nil {
		drivers = min(ranks, stdruntime.GOMAXPROCS(0))
	}
	e.barrier.n = drivers
	var wg sync.WaitGroup
	for d, lo := 0, e.local.Lo; d < drivers; d++ {
		// The ranks left, spread evenly over the drivers left.
		hi := lo + (e.local.Hi-lo+drivers-d-1)/(drivers-d)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.drive(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	firstErr.Set(e.transport.Err())
	return firstErr.Err()
}

// drive runs every step of ranks [lo, hi), one step at a time.
//
// A driver of one rank steps it in order and parks wherever the step
// waits, as a goroutine per rank did. A driver of several (only over
// the engine's Fabric) runs next, in turn from the rank after the last
// one it ran, a rank that can run its step without waiting: every pair
// it consumes has published the step, and every pair it produces has
// acknowledged enough for the step's slots to be free. So ranks stay
// message-driven within a driver, like the chares on a Charm++ PE.
// When none can, it runs its least-advanced rank, which may park
// inside the step. That cannot deadlock: the globally least-advanced
// rank can always run (DESIGN.md §2b), and its driver runs either a
// rank that can run or its least-advanced one, which is then no
// further along than that rank and can run too. Over the Fabric a
// rank's slots are reserved here, before its step, not at the end of
// its Flush: a rank parked at its flush for a consumer on its own
// driver would wait forever.
//
// A rank whose step ended in Barrier waits until every rank of the
// driver has; the driver then waits once at the engine's barrier,
// whose parties are the run's drivers.
func (e *RankEngine) drive(lo, hi int) {
	next, waiting := lo, 0
	for left := (hi - lo) * e.plan.MaxSteps; left > 0; left-- {
		rc := e.ctxs[lo]
		if hi-lo > 1 {
			rc = e.pick(lo, hi, &next)
		} else if e.fabric != nil {
			e.fabric.reserveStep(rc.Rank)
		}
		e.policy.Step(rc, rc.t)
		rc.t++
		if !rc.atBarrier {
			rc.flush()
			continue
		}
		if waiting++; waiting == hi-lo {
			e.barrier.Wait()
			for r := lo; r < hi; r++ {
				e.ctxs[r].atBarrier = false
			}
			waiting = 0
		}
	}
}

// pick returns the rank of [lo, hi) that drive runs next, its slots
// reserved: the first, from *next on, that can run its step without
// waiting, or else the least-advanced one. It moves *next past a rank
// that can run.
func (e *RankEngine) pick(lo, hi int, next *int) *RankCtx {
	var slow *RankCtx
	r := *next
	for range hi - lo {
		rc := e.ctxs[r]
		if r++; r == hi {
			r = lo
		}
		if rc.t == e.plan.MaxSteps || rc.atBarrier {
			continue
		}
		if e.fabric.ready(rc.Rank) {
			*next = r
			return rc
		}
		if slow == nil || rc.t < slow.t {
			slow = rc
		}
	}
	e.fabric.reserveStep(slow.Rank)
	return slow
}

// Close releases the engine's transport.
func (e *RankEngine) Close() { e.transport.Close() }

// RankSession couples an app with a reusable RankPlan and RankEngine —
// the rank-space analog of Session. Repeated runs of one configuration
// (a distributed METG sweep measuring the same graph at shrinking
// kernel sizes) pay plan construction, fabric wiring and, for tcp,
// connection establishment once instead of per measurement point.
// Callers may mutate the app's kernel configuration between runs; the
// DAG shape must stay fixed.
type RankSession struct {
	App     *core.App
	Plan    *RankPlan
	engine  *RankEngine
	workers int
}

// NewRankSession builds the app's rank plan (in parallel) and prepares
// an engine over it with the given policy.
func NewRankSession(app *core.App, policy RankPolicy) (*RankSession, error) {
	layout := policy.Layout(app)
	plan := BuildRankPlan(app, layout.Ranks)
	engine, err := NewRankEngine(plan, policy, layout.Threads)
	if err != nil {
		return nil, err
	}
	// An over-decomposed layout (actor's rank per column) occupies no
	// more cores than the app asked for; recording the rank count would
	// inflate TaskGranularity.
	workers := min(layout.Workers(), WorkersFor(app))
	return &RankSession{App: app, Plan: plan, engine: engine, workers: workers}, nil
}

// Run resets the plan and executes it once, returning fresh statistics
// for the app's current kernel configuration.
func (s *RankSession) Run() (core.RunStats, error) {
	s.Plan.Reset()
	return Measure(s.App, s.workers, func() error {
		return s.engine.Run(s.App.Validate)
	})
}

// Close releases the session's transport resources.
func (s *RankSession) Close() { s.engine.Close() }

// RunRanks executes app once through a fresh RankSession — the shared
// Run body of every rank backend.
func RunRanks(app *core.App, policy RankPolicy) (core.RunStats, error) {
	sess, err := NewRankSession(app, policy)
	if err != nil {
		return core.RunStats{}, err
	}
	defer sess.Close()
	return sess.Run()
}
