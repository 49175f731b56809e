package exec

import (
	"sync"

	"taskbench/internal/core"
)

// Transport is the messaging substrate a RankEngine moves cross-rank
// payloads over, addressed by dense edge id: the index into
// RankPlan.Edges(graph) that the plan's compiled routes carry. The
// in-process Fabric is the default; the tcp backend substitutes a real
// wire transport via RankTransporter.
type Transport interface {
	// SendEdge transmits payload along the edge. rank identifies the
	// sending rank, for transports that route by connection.
	SendEdge(rank, graph, edge int, payload []byte) error
	// RecvEdge blocks until the next payload on the edge arrives and
	// returns it. The bytes stay valid until the next RecvEdge on the
	// same edge, so a caller must be done with one payload of an edge
	// before asking for the next — which timestep order gives every
	// policy for free.
	RecvEdge(graph, edge int) []byte
	// Err reports any asynchronous transport failure observed so far.
	Err() error
	// Close releases transport resources.
	Close()
}

// Flusher is an optional Transport extension for transports that batch
// outbound sends (tcp's mesh coalesces every payload headed to the
// same peer rank into one frame). The engine calls Flush(rank) on the
// rank's own goroutine after every policy Step, so the flush point is
// the timestep boundary: a batching transport may defer any Send until
// then. That is safe for every policy whose receives at step t consume
// only payloads sent at steps before t (dependencies span consecutive
// timesteps); a policy that consumed same-step sends would need an
// explicit mid-step flush, which no current policy does.
type Flusher interface {
	Flush(rank int) error
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
// in common — rank goroutine spawn and join, transport construction
// and reuse, per-rank column ownership, barrier lifecycle, payload row
// buffering, and first-error capture — and delegates only the
// paradigm itself: how one rank enumerates and communicates one
// timestep. Each backend registered with runtime.RegisterRanks is one
// RankPolicy of a few dozen lines, or just a Layout over another's
// Step.
//
// A RankPolicy is used by one RankEngine at a time. Step is called
// concurrently from every rank's goroutine; per-rank policy state must
// be indexed by rc.Rank.
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

// RankCompiler is an optional RankPolicy extension for policies that
// expand per-rank schedules from the plan (ptg's parameterized task
// graph). NewRankEngine invokes it once at construction — outside any
// timed region — so every point of an METG sweep sees an
// already-compiled schedule.
type RankCompiler interface {
	CompileRanks(plan *RankPlan)
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

// Prev returns the payload column i of graph gi produced in the
// previous timestep.
func (rc *RankCtx) Prev(gi, i int) []byte { return rc.plan().Rows(rc.Rank, gi).Prev(i) }

// Cur returns the output buffer of column i of graph gi in the current
// timestep.
func (rc *RankCtx) Cur(gi, i int) []byte { return rc.plan().Rows(rc.Rank, gi).Cur(i) }

// Flip swaps graph gi's payload rows at the end of a timestep.
func (rc *RankCtx) Flip(gi int) { rc.plan().Rows(rc.Rank, gi).Flip() }

// Barrier blocks until every rank of the engine arrives — the global
// barrier of the bulk-synchronous paradigm. A policy either calls it
// on every rank at every timestep or not at all.
func (rc *RankCtx) Barrier() { rc.engine.barrier.Wait() }

// Recv blocks until the next payload on edge (a Route.Edge of graph gi)
// arrives. The bytes stay valid until the next Recv on the same edge.
//
//taskbench:hotpath
func (rc *RankCtx) Recv(gi, edge int) []byte {
	return rc.engine.transport.RecvEdge(gi, edge)
}

// Send transmits payload along edge (a Route.Edge of graph gi),
// capturing transport failures as the run's first error.
//
//taskbench:hotpath
func (rc *RankCtx) Send(gi, edge int, payload []byte) {
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
// reclaims each on the edge's next receive).
//
//taskbench:hotpath
func (rc *RankCtx) RunInto(inputs [][]byte, gi, t, i int) ([][]byte, []byte) {
	plan := rc.plan()
	rows := plan.Rows(rc.Rank, gi)
	tr := rc.engine.transport
	inputs = inputs[:0]
	for _, in := range plan.Gather(gi, t, i) {
		if in.Edge == LocalEdge {
			inputs = append(inputs, rows.Prev(int(in.Col))) //taskbench:allocok grows to the max in-degree once, then reuses capacity
		} else {
			inputs = append(inputs, tr.RecvEdge(gi, int(in.Edge))) //taskbench:allocok grows to the max in-degree once, then reuses capacity
		}
	}
	return inputs, rc.ExecWith(gi, t, i, inputs)
}

// ExecWith executes task (t, i) of graph gi with explicitly gathered
// inputs, writing into the current row. On failure it records the
// run's first error but still publishes a valid output, keeping the
// protocol flowing so peer ranks do not deadlock on missing sends.
// Once the run has failed, remaining tasks skip kernel execution
// entirely: the schedule drains at wire speed (outputs are still
// published for peers) instead of burning kernel time on doomed work —
// which is what lets a job on a dead cluster peer fail in milliseconds
// rather than after the full busy-wait schedule.
//
//taskbench:hotpath
func (rc *RankCtx) ExecWith(gi, t, i int, inputs [][]byte) []byte {
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
//
//taskbench:hotpath
func (rc *RankCtx) SendOutputs(gi, t, i int, out []byte) {
	for _, to := range rc.plan().Sends(gi, t, i) {
		rc.Send(gi, int(to.Edge), out)
	}
}

// RankEngine executes a RankPlan under a pluggable RankPolicy. It owns
// the parts every rank-based backend previously duplicated: rank
// goroutine spawn and join, transport construction and reuse, per-rank
// column ownership, barrier lifecycle, payload row buffering, and
// first-error capture. An engine may be reused: a caller holding a
// Reset RankPlan can rerun it without rewiring the fabric (see
// RankSession).
type RankEngine struct {
	plan      *RankPlan
	policy    RankPolicy
	threads   int
	local     Span // ranks hosted by this engine (all of them in-process)
	transport Transport
	barrier   *barrier
	ctxs      []*RankCtx
}

// NewRankEngine builds an engine over plan with the given policy and
// intra-rank thread count. Schedule compilation (RankCompiler) and
// transport construction (RankTransporter, defaulting to the
// in-process Fabric over the plan's edge index) happen here, outside
// any timed region.
func NewRankEngine(plan *RankPlan, policy RankPolicy, threads int) (*RankEngine, error) {
	e := newRankEngine(plan, policy, threads)
	if transporter, ok := policy.(RankTransporter); ok {
		transport, err := transporter.OpenTransport(plan)
		if err != nil {
			return nil, err
		}
		e.transport = transport
	} else {
		e.transport = NewFabric(plan, edgeCap, nil)
	}
	return e, nil
}

// NewLocalRankEngine builds an engine hosting only the plan's Local
// rank span, moving cross-rank payloads over an externally supplied
// transport — a cluster worker's slice of a multi-process run whose
// remaining ranks live in other processes. The engine owns the
// transport and Closes it. Policies driven this way must be
// barrier-free: the cyclic barrier cannot span processes, so only the
// local ranks participate in it.
func NewLocalRankEngine(plan *RankPlan, policy RankPolicy, threads int, transport Transport) *RankEngine {
	e := newRankEngine(plan, policy, threads)
	e.transport = transport
	return e
}

func newRankEngine(plan *RankPlan, policy RankPolicy, threads int) *RankEngine {
	if threads < 1 {
		threads = 1
	}
	if compiler, ok := policy.(RankCompiler); ok {
		compiler.CompileRanks(plan)
	}
	e := &RankEngine{
		plan:    plan,
		policy:  policy,
		threads: threads,
		local:   plan.Local,
		barrier: newBarrier(plan.Local.Len()),
	}
	e.ctxs = make([]*RankCtx, plan.Ranks)
	for r := e.local.Lo; r < e.local.Hi; r++ {
		e.ctxs[r] = &RankCtx{Rank: r, engine: e}
	}
	return e
}

// Run executes every locally hosted task of the plan once, one
// goroutine per rank, and returns the first validation or transport
// error. Even on error every rank completes its schedule (validation is
// skipped after the first failure), so the transport always drains.
// Call Plan.Reset before running again.
func (e *RankEngine) Run(validate bool) error {
	firstErr := &ErrOnce{}
	flusher, _ := e.transport.(Flusher)
	var wg sync.WaitGroup
	for r := e.local.Lo; r < e.local.Hi; r++ {
		rc := e.ctxs[r]
		rc.validate = validate
		rc.firstErr = firstErr
		wg.Add(1)
		go func(rc *RankCtx) {
			defer wg.Done()
			for t := 0; t < e.plan.MaxSteps; t++ {
				e.policy.Step(rc, t)
				if flusher != nil {
					if err := flusher.Flush(rc.Rank); err != nil {
						firstErr.Set(err)
					}
				}
			}
		}(rc)
	}
	wg.Wait()
	firstErr.Set(e.transport.Err())
	return firstErr.Err()
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
