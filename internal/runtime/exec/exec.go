// Package exec provides the shared substrate used by every runtime
// backend: the Engine/Policy scheduler core and the reusable,
// parallel-built task-DAG Plan it executes (engine.go, policy.go,
// plan.go), the RankEngine/RankPolicy rank core with its RankPlan and
// step-sequenced fabric (rankengine.go, rankplan.go, fabric.go),
// plus worker accounting, block distribution of columns over ranks,
// first-error capture and double-buffered payload rows. Keeping these
// here keeps each backend down to its scheduling paradigm, mirroring
// how the paper's core library absorbs everything shared between
// systems.
package exec

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskbench/internal/core"
)

// WorkersFor picks the worker count for an app: the explicit setting
// if present, otherwise one worker per available CPU, capped at the
// total graph width so trivially small graphs do not spawn idle
// workers.
func WorkersFor(app *core.App) int {
	w := app.Workers
	if w <= 0 {
		w = stdruntime.GOMAXPROCS(0)
	}
	maxWidth := 0
	for _, g := range app.Graphs {
		maxWidth += g.MaxWidth
	}
	if maxWidth == 0 {
		// An app with no graphs needs no parallelism (and no fabric
		// mesh of idle ranks).
		return 1
	}
	if w > maxWidth {
		w = maxWidth
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Measure runs body, filling in the timing fields of the app's
// statistics. workers is recorded for task-granularity computation.
// On failure the partially filled statistics (Elapsed, Workers and the
// static task counts) are returned alongside the error, so callers can
// still report how long a failed run took and at what parallelism.
func Measure(app *core.App, workers int, body func() error) (core.RunStats, error) {
	stats := core.StatsFor(app)
	stats.Workers = workers
	start := time.Now()
	err := body()
	stats.Elapsed = time.Since(start)
	return stats, err
}

// ErrOnce records the first error reported by any worker and exposes a
// cheap cancellation check so workers can abandon work early.
type ErrOnce struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

// Set records err if it is the first failure. Workers call it from the
// task loop (usually with nil), so the common paths — no error, or a
// failure already recorded — are a nil check and an atomic load; the
// sync.Once closure the previous version allocated per call is gone.
func (e *ErrOnce) Set(err error) {
	if err == nil || e.failed.Load() {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		// The store orders after the write of e.err, so Err's unlocked
		// read is safe once it observes failed.
		e.failed.Store(true)
	}
	e.mu.Unlock()
}

// Failed reports whether any error has been recorded.
func (e *ErrOnce) Failed() bool { return e.failed.Load() }

// Err returns the recorded error, if any.
func (e *ErrOnce) Err() error {
	if e.failed.Load() {
		return e.err
	}
	return nil
}

// Span is a contiguous block of columns owned by one rank.
type Span struct {
	Lo int // first column (inclusive)
	Hi int // last column (exclusive)
}

// Len returns the number of columns in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// BlockAssign distributes width columns over ranks contiguous blocks,
// the distribution every distributed backend (and the paper's MPI
// implementation) uses. Earlier ranks receive the remainder.
func BlockAssign(width, ranks int) []Span {
	if ranks < 1 {
		ranks = 1
	}
	spans := make([]Span, ranks)
	base := width / ranks
	rem := width % ranks
	lo := 0
	for r := 0; r < ranks; r++ {
		n := base
		if r < rem {
			n++
		}
		spans[r] = Span{Lo: lo, Hi: lo + n}
		lo += n
	}
	return spans
}

// OwnerOf returns the rank owning column i under BlockAssign.
func OwnerOf(i, width, ranks int) int {
	if ranks < 1 {
		return 0
	}
	base := width / ranks
	rem := width % ranks
	// The first rem ranks own base+1 columns.
	cut := rem * (base + 1)
	if i < cut {
		return i / (base + 1)
	}
	if base == 0 {
		return ranks - 1
	}
	return rem + (i-cut)/base
}

// barrier is the RankEngine's reusable cyclic barrier, reached by
// bulk-synchronous policies through RankCtx.Barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	round int
}

// newBarrier creates a barrier for n participants.
func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants arrive. It needs no failure
// path: a failed run keeps every rank stepping (execWith still
// publishes), so every rank reaches every barrier.
func (b *barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for b.round == round {
		b.cond.Wait()
	}
}

// Rows manages the double-buffered payload rows of one graph: the
// outputs of the previous timestep (consumed as inputs) and the
// outputs being produced in the current timestep. The flat backing
// arrays are allocated once, so steady-state execution is
// allocation-free like the reference implementations.
type Rows struct {
	prev, cur [][]byte
	prevFlat  []byte
	curFlat   []byte
	flipped   bool
}

// NewRows allocates double buffers for a graph of the given width and
// payload size.
func NewRows(width, outputBytes int) *Rows {
	return newSpanRows(width, Span{Lo: 0, Hi: width}, outputBytes)
}

// newSpanRows allocates the double buffers of one rank: indexed by
// column over the whole width, like NewRows, but backed only for the
// columns of own. A rank reads and writes rows of its own span only —
// remote inputs are fabric slots — so the other columns stay nil and a
// rank's payload memory is 2 × span × outputBytes however many ranks
// share the graph.
func newSpanRows(width int, own Span, outputBytes int) *Rows {
	r := &Rows{
		prev:     make([][]byte, width),
		cur:      make([][]byte, width),
		prevFlat: make([]byte, own.Len()*outputBytes),
		curFlat:  make([]byte, own.Len()*outputBytes),
	}
	for i := own.Lo; i < own.Hi; i++ {
		k := (i - own.Lo) * outputBytes
		r.prev[i] = r.prevFlat[k : k+outputBytes]
		r.cur[i] = r.curFlat[k : k+outputBytes]
	}
	return r
}

// Prev returns the payload produced by column i in the previous
// timestep.
func (r *Rows) Prev(i int) []byte { return r.prev[i] }

// Cur returns the output buffer for column i in the current timestep.
func (r *Rows) Cur(i int) []byte { return r.cur[i] }

// Flip swaps the buffers at the end of a timestep.
func (r *Rows) Flip() {
	r.prev, r.cur = r.cur, r.prev
	r.prevFlat, r.curFlat = r.curFlat, r.prevFlat
	r.flipped = !r.flipped
}

// Rehome restores the orientation NewRows established, so a reused
// RankPlan starts every run with identical buffer parity regardless of
// how many timesteps the previous run flipped through.
func (r *Rows) Rehome() {
	if r.flipped {
		r.Flip()
	}
}
