package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/wire"
)

// Client submits jobs to a coordinator over one control connection.
// Submissions pipeline: many jobs may be in flight at once (the
// coordinator matches done replies by job id), so a Client is safe —
// and useful — for concurrent use. A background read loop demultiplexes
// replies to the per-submission Pending handles.
type Client struct {
	mc *msgConn

	// subMu serializes submissions so the fifo order below matches the
	// order submits hit the wire; the read loop never takes it.
	subMu sync.Mutex

	mu       sync.Mutex
	err      error               // sticky protocol failure
	fifo     []*Pending          // submitted, awaiting accepted/rejected (reply order = submit order)
	byID     map[uint64]*Pending // accepted, awaiting done (matched by job id)
	queries  map[uint64]chan statsOutcome
	nextStat uint64 // correlation ids for stats queries
	started  bool

	// statsApp caches the app rebuilt for client-side statistics: an
	// METG sweep submits the same shape per point, and the cached
	// graphs keep their memoized dependence totals warm instead of
	// re-deriving the relation at every point.
	statsMu  sync.Mutex
	statsKey string
	statsApp *core.App
}

// JobResult is one completed job as reported by the coordinator.
type JobResult struct {
	// Job is the coordinator-assigned job id.
	Job uint64
	// Elapsed is the slowest participating worker's wall time.
	Elapsed time.Duration
	// Workers is the rank count the job ran on.
	Workers int
	// Rejected reports that the job never ran: the coordinator refused
	// it at admission (full queue, invalid spec), with the reason in
	// Err. A queue-full rejection is immediate — the fast signal to
	// back off and resubmit, rather than blocking behind the backlog.
	Rejected bool
	// Err is the job-level failure, if any (a dead worker after all
	// retry attempts, a validation error, a rejection, a cancellation).
	Err error
}

// Pending is one in-flight submission.
type Pending struct {
	cli          *Client
	ch           chan pendingOutcome
	id           atomic.Uint64
	cancelWanted atomic.Bool
}

type pendingOutcome struct {
	res JobResult
	err error
}

type statsOutcome struct {
	info wire.StatsInfo
	err  error
}

// Wait blocks until the job completes, is rejected, or the connection
// fails. The error return covers protocol failures (lost coordinator);
// job-level failures come back in JobResult.Err so callers can
// distinguish "the run failed" from "the cluster is gone".
func (p *Pending) Wait() (JobResult, error) {
	out := <-p.ch
	return out.res, out.err
}

// WaitContext is Wait with a deadline: a stalled coordinator yields
// ctx.Err() instead of a goroutine parked forever on the demux. The
// submission itself stays in flight — a later Wait (or the read loop)
// still resolves it, and callers abandoning the job should Cancel.
func (p *Pending) WaitContext(ctx context.Context) (JobResult, error) {
	select {
	case out := <-p.ch:
		return out.res, out.err
	case <-ctx.Done():
		return JobResult{}, ctx.Err()
	}
}

// Cancel asks the coordinator to abandon the job: a queued job is
// dropped, a running one is aborted and its workers released.
// Best-effort — the job may complete first.
func (p *Pending) Cancel() {
	p.cancelWanted.Store(true)
	if id := p.id.Load(); id != 0 {
		p.cli.mc.write(wire.Message{Type: wire.MsgCancel, Job: id})
	}
	// If the accepted reply has not arrived yet, the read loop sends
	// the cancel as soon as it learns the job id.
}

// Dial connects to a coordinator's control address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return &Client{mc: newMsgConn(conn), byID: map[uint64]*Pending{}, queries: map[uint64]chan statsOutcome{}}, nil
}

// Close releases the control connection. In-flight submissions fail
// with a protocol error; coordinator-side, they are cancelled by the
// disconnect.
func (c *Client) Close() { c.mc.close() }

// SubmitAsync queues one job without waiting for it, so a connection
// can pipeline many jobs — the coordinator runs compatible shapes
// concurrently across the fleet. The returned Pending resolves when
// the coordinator rejects or finishes the job.
func (c *Client) SubmitAsync(spec wire.AppSpec) (*Pending, error) {
	p := &Pending{cli: c, ch: make(chan pendingOutcome, 1)}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if !c.started {
		c.started = true
		go c.readLoop()
	}
	c.fifo = append(c.fifo, p)
	c.mu.Unlock()
	if err := c.mc.write(wire.Message{Type: wire.MsgSubmit, Spec: &spec}); err != nil {
		c.mu.Lock()
		for i, q := range c.fifo {
			if q == p {
				c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: submit: %w", err)
	}
	return p, nil
}

// Stats fetches the coordinator's gauge/counter snapshot over the
// control connection — queue depth, jobs in flight and running,
// admission and retry counters, and the scheduler dimensions — so a
// monitoring client (the load generator's utilization feed) never
// scrapes coordinator process internals. Safe for concurrent use and
// freely interleaved with in-flight submissions: requests are matched
// to replies by a correlation id, not by order.
func (c *Client) Stats() (wire.StatsInfo, error) {
	return c.StatsContext(context.Background())
}

// StatsContext is Stats with a deadline: a stalled coordinator (alive
// TCP connection, wedged process) yields ctx.Err() instead of a
// goroutine parked forever on the demux. An abandoned query's late
// reply is dropped by the read loop, not mistaken for a failure.
func (c *Client) StatsContext(ctx context.Context) (wire.StatsInfo, error) {
	ch := make(chan statsOutcome, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return wire.StatsInfo{}, err
	}
	if !c.started {
		c.started = true
		go c.readLoop()
	}
	c.nextStat++
	id := c.nextStat
	c.queries[id] = ch
	c.mu.Unlock()
	if err := c.mc.write(wire.Message{Type: wire.MsgStats, Job: id}); err != nil {
		c.mu.Lock()
		delete(c.queries, id)
		c.mu.Unlock()
		return wire.StatsInfo{}, fmt.Errorf("cluster: stats: %w", err)
	}
	select {
	case out := <-ch:
		return out.info, out.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.queries, id)
		c.mu.Unlock()
		return wire.StatsInfo{}, ctx.Err()
	}
}

// Submit queues one job and blocks until it completes or is rejected.
func (c *Client) Submit(spec wire.AppSpec) (JobResult, error) {
	p, err := c.SubmitAsync(spec)
	if err != nil {
		return JobResult{}, err
	}
	return p.Wait()
}

// readLoop demultiplexes coordinator replies: accepted and rejected
// are matched to submissions in order (the coordinator answers every
// submit immediately), done is matched to its accepted job by id.
func (c *Client) readLoop() {
	for {
		m, err := c.mc.read()
		if err != nil {
			c.failAll(fmt.Errorf("cluster: coordinator connection: %w", err))
			return
		}
		switch m.Type {
		case wire.MsgAccepted:
			c.mu.Lock()
			p := c.popFIFO()
			if p != nil {
				c.byID[m.Job] = p
			}
			c.mu.Unlock()
			if p != nil {
				p.id.Store(m.Job)
				if p.cancelWanted.Load() {
					c.mc.write(wire.Message{Type: wire.MsgCancel, Job: m.Job})
				}
			}
		case wire.MsgRejected:
			c.mu.Lock()
			p := c.popFIFO()
			c.mu.Unlock()
			if p != nil {
				p.ch <- pendingOutcome{res: JobResult{Job: m.Job, Rejected: true, Err: errors.New(m.Err)}}
			}
		case wire.MsgDone:
			c.mu.Lock()
			p := c.byID[m.Job]
			delete(c.byID, m.Job)
			c.mu.Unlock()
			if p == nil {
				// Every done must name an accepted job; matching a
				// stray one against the FIFO instead would resolve an
				// unrelated submission with the wrong result.
				c.failAll(fmt.Errorf("cluster: done for unknown job %d", m.Job))
				return
			}
			res := JobResult{Job: m.Job, Elapsed: time.Duration(m.ElapsedNanos), Workers: m.Workers}
			if m.Err != "" {
				res.Err = errors.New(m.Err)
			}
			p.ch <- pendingOutcome{res: res}
		case wire.MsgStatsRply:
			c.mu.Lock()
			ch := c.queries[m.Job]
			delete(c.queries, m.Job)
			c.mu.Unlock()
			if ch == nil {
				// The query timed out (StatsContext) and was abandoned;
				// its late reply is stale, not a protocol violation.
				continue
			}
			var info wire.StatsInfo
			if m.Stats != nil {
				info = *m.Stats
			}
			ch <- statsOutcome{info: info}
		default:
			c.failAll(fmt.Errorf("cluster: unexpected %q from coordinator", m.Type))
			return
		}
	}
}

// popFIFO removes and returns the oldest submission still awaiting its
// accepted/rejected reply. Callers hold c.mu.
func (c *Client) popFIFO() *Pending {
	if len(c.fifo) == 0 {
		return nil
	}
	p := c.fifo[0]
	c.fifo = c.fifo[1:]
	return p
}

// failAll resolves every in-flight submission with a protocol error
// and poisons the client for further submits.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.err = err
	pending := make([]*Pending, 0, len(c.fifo)+len(c.byID))
	pending = append(pending, c.fifo...)
	for _, p := range c.byID {
		pending = append(pending, p)
	}
	c.fifo = nil
	c.byID = map[uint64]*Pending{}
	queries := make([]chan statsOutcome, 0, len(c.queries))
	for _, ch := range c.queries {
		queries = append(queries, ch)
	}
	c.queries = map[uint64]chan statsOutcome{}
	c.mu.Unlock()
	for _, p := range pending {
		p.ch <- pendingOutcome{err: err}
	}
	for _, ch := range queries {
		ch <- statsOutcome{err: err}
	}
}

// Run submits the spec and converts the result into the same RunStats
// every local backend reports, so cluster runs drop into existing
// tooling (METG sweeps, reports). The static quantities (task count,
// expected flops) are derived client-side from the spec; the cluster
// contributes the measured wall time and rank count.
func (c *Client) Run(spec wire.AppSpec) (core.RunStats, error) {
	// The static stats are snapshotted before the submission, under the
	// cache lock: a concurrent Run with a different kernel must not see
	// this call's kernel mutation on the shared cached app.
	stats, err := c.statsFor(spec)
	if err != nil {
		return core.RunStats{}, err
	}
	res, err := c.Submit(spec)
	if err != nil {
		return core.RunStats{}, err
	}
	stats.Elapsed = res.Elapsed
	stats.Workers = res.Workers
	return stats, res.Err
}

// statsFor computes the spec's static run statistics, reusing the
// cached graphs when only the kernels changed (the sweep case) so the
// shape-static totals stay memoized.
func (c *Client) statsFor(spec wire.AppSpec) (core.RunStats, error) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	key := wire.ShapeKey(spec)
	if c.statsApp != nil && c.statsKey == key {
		for gi, ks := range wire.KernelsOf(spec) {
			k, err := ks.ToConfig()
			if err != nil {
				return core.RunStats{}, err
			}
			c.statsApp.Graphs[gi].Kernel = k
		}
		return core.StatsFor(c.statsApp), nil
	}
	app, err := spec.ToApp()
	if err != nil {
		return core.RunStats{}, err
	}
	c.statsKey, c.statsApp = key, app
	return core.StatsFor(app), nil
}
