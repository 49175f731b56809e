package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/wire"
)

// Client submits jobs to a coordinator over one control connection.
// Submissions pipeline: many jobs may be in flight at once, so a Client
// is safe — and useful — for concurrent use. Every request carries an
// id the client chose and every reply echoes it; a background read
// loop demultiplexes replies by that id to the per-submission Pending
// handles and the waiting stats queries.
type Client struct {
	mc *msgConn

	mu      sync.Mutex
	err     error               // sticky protocol failure
	byID    map[uint64]*Pending // submitted, awaiting rejected or done
	queries map[uint64]chan statsOutcome
	nextID  uint64 // request ids, shared by submits and stats queries
	started bool
	read    chan struct{} // closed when readLoop exits

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
	// Job is the id the client sent the job under, unique on its
	// connection.
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
	cli *Client
	ch  chan pendingOutcome
	id  uint64
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
// Best-effort — the job may complete first. The connection is ordered,
// so the coordinator always reads the submit before its cancel.
func (p *Pending) Cancel() {
	p.cli.mc.write(wire.Message{Type: wire.MsgCancel, Job: p.id})
}

// Dial connects to a coordinator's control address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return &Client{mc: newMsgConn(conn), byID: map[uint64]*Pending{}, queries: map[uint64]chan statsOutcome{}, read: make(chan struct{})}, nil
}

// Close releases the control connection and returns once the read loop
// has exited; a closed client starts none. In-flight submissions fail
// with a protocol error; coordinator-side, they are cancelled by the
// disconnect.
func (c *Client) Close() {
	c.mc.close()
	c.mu.Lock()
	started := c.started
	c.err = cmp.Or(c.err, net.ErrClosed)
	c.mu.Unlock()
	if started {
		<-c.read
	}
}

// SubmitAsync queues one job without waiting for it, so a connection
// can pipeline many jobs — the coordinator runs compatible shapes
// concurrently across the fleet. The returned Pending resolves when
// the coordinator rejects or finishes the job.
func (c *Client) SubmitAsync(spec wire.AppSpec) (*Pending, error) {
	p := &Pending{cli: c, ch: make(chan pendingOutcome, 1)}
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
	c.nextID++
	p.id = c.nextID
	c.byID[p.id] = p
	c.mu.Unlock()
	if err := c.mc.write(wire.Message{Type: wire.MsgSubmit, Job: p.id, Spec: &spec}); err != nil {
		c.mu.Lock()
		delete(c.byID, p.id)
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
// freely interleaved with in-flight submissions: replies are matched
// by id, not by order.
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
	c.nextID++
	id := c.nextID
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

// readLoop demultiplexes coordinator replies by the id of the request
// they answer.
func (c *Client) readLoop() {
	defer close(c.read)
	for {
		m, err := c.mc.read()
		if err != nil {
			c.failAll(fmt.Errorf("cluster: coordinator connection: %w", err))
			return
		}
		switch m.Type {
		case wire.MsgRejected, wire.MsgDone:
			c.mu.Lock()
			p := c.byID[m.Job]
			delete(c.byID, m.Job)
			c.mu.Unlock()
			if p == nil {
				// Every submit gets exactly one verdict, so a verdict
				// for no job in flight means the peer broke protocol.
				c.failAll(fmt.Errorf("cluster: %s for unknown job %d", m.Type, m.Job))
				return
			}
			res := JobResult{Job: m.Job, Elapsed: time.Duration(m.ElapsedNanos), Workers: m.Workers, Rejected: m.Type == wire.MsgRejected}
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

// failAll resolves every in-flight submission with a protocol error
// and poisons the client for further submits.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.err = err
	pending := make([]*Pending, 0, len(c.byID))
	for _, p := range c.byID {
		pending = append(pending, p)
	}
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
