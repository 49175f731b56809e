package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/tcp"
	"taskbench/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// Listen is the control address; default "127.0.0.1:0".
	Listen string
	// HeartbeatInterval is how often workers must heartbeat; default 1s,
	// at least 1ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a silent worker dead; default 5×interval.
	HeartbeatTimeout time.Duration
	// SetupTimeout bounds configuration provisioning (every member's
	// prepare: plan build and data listener); default 60s. The mesh is
	// wired by the configuration's first run, under JobTimeout.
	SetupTimeout time.Duration
	// JobTimeout bounds one run; default 10m. It is the last-resort
	// no-hang guarantee behind the heartbeat machinery.
	JobTimeout time.Duration
	// QueueDepth is the job queue capacity; default 64. Submissions
	// beyond it are rejected immediately (a fast `rejected` reply)
	// instead of blocking the submitter behind the backlog.
	QueueDepth int
	// Concurrency is the number of scheduler slots — jobs that may be
	// in flight across the fleet at once; default 4. Jobs of different
	// shapes run concurrently on their own configurations; jobs sharing
	// a shape serialize on that shape's run lock (the prepared mesh is
	// single-run state) but pipeline over it without re-provisioning.
	Concurrency int
	// MaxAttempts bounds how many times one job may run; default 3. A
	// job whose attempt fails because a worker died (not because its
	// spec or run is invalid) is re-run with the configuration
	// re-provisioned over the reshaped fleet, up to this many attempts.
	// 1 disables retry.
	MaxAttempts int
	// MaxConfigs caps how many shapes may hold a configuration (plans,
	// payload rows, a live mesh) across the fleet at once, counting each
	// from the moment it is placed, provisioning included; default 32.
	// Past the cap the least-recently-used idle shape is evicted, so an
	// elastic fleet reshaping under a long-tailed shape mix recycles
	// mesh state instead of accumulating it forever.
	MaxConfigs int
	// DrainTimeout bounds a graceful drain: a worker whose configs are
	// still busy after this long is treated as dead (configs torn,
	// running attempts retried) instead of holding its departure
	// hostage. Default JobTimeout.
	DrainTimeout time.Duration
	// HTTPAddr, when non-empty, serves the observability endpoints —
	// /metrics (Prometheus text exposition) and /healthz — on that
	// address. Empty disables the HTTP server entirely.
	HTTPAddr string
	// Chaos, when set, injects scripted faults into the control frames
	// this coordinator writes (forked per accepted connection). Tests
	// and the chaos harness only; nil injects nothing.
	Chaos *chaos.Injector
	// Logf, when set, receives coordinator lifecycle logging.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * o.HeartbeatInterval
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 60 * time.Second
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxConfigs <= 0 {
		o.MaxConfigs = 32
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = o.JobTimeout
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Stats is the coordinator's snapshot of counters and gauges — the
// struct a statsreply carries, so an in-process caller of
// Coordinator.Stats and a remote Client.Stats read the same fields.
type Stats = wire.StatsInfo

// Coordinator accepts worker registrations and client job submissions
// on one control port and drives distributed runs across the fleet.
type Coordinator struct {
	opts Options
	ln   net.Listener

	mu           sync.Mutex
	workers      map[int64]*workerConn
	fleetChanged chan struct{} // closed and replaced on every registration/death
	configs      map[string]*configEntry
	conns        map[*msgConn]struct{} // every open control connection (workers and clients)
	nextWorker   int64
	nextConfig   uint64
	nextJob      uint64

	queue chan *job
	done  chan struct{}
	stop  sync.Once
	wg    sync.WaitGroup

	// metrics is the scrape-side instrumentation; always non-nil. The
	// HTTP server only exists when Options.HTTPAddr is set.
	metrics *coordMetrics
	http    *httpServer
}

// workerConn is the coordinator's view of one registered worker.
type workerConn struct {
	id       int64
	name     string
	mc       *msgConn
	lastSeen atomic.Int64 // unix nanos

	// deadOnce is claimed by markDead or finishDrainIfFree, whichever
	// takes the worker out of the fleet first.
	deadOnce sync.Once

	// draining and drainTimer (its DrainTimeout fallback) are guarded by
	// Coordinator.mu: once draining, buildConfig places nothing here.
	draining   bool
	drainTimer *time.Timer

	// waiters holds the callAll waits on this worker's replies, keyed
	// by replyKeyOf. markDead and finishDrainIfFree swap it for nil and
	// fail every wait in it, so a wait registered afterwards fails at once.
	mu      sync.Mutex
	waiters map[replyKey]waiter
}

// waiter is member k's place in one callAll: route sends the reply to
// ch tagged with k, and a lost worker a worker-lost error instead.
type waiter struct {
	ch chan<- reply
	k  int
}

// reply is what a waiter receives: member k's reply m, or err.
type reply struct {
	k   int
	m   wire.Message
	err error
}

// replyKey names the one reply a call waits for. Prepared replies are
// matched on the config id; results on (job, attempt), so a stale
// attempt's late result finds no waiter instead of satisfying the live
// attempt.
type replyKey struct {
	typ     string // the reply's message type
	id      uint64
	attempt int
}

// replyKeyOf returns the key a reply m is routed under — and, for a
// request, the key of the reply that answers it, so the caller and the
// read loop cannot spell it differently.
func replyKeyOf(m wire.Message) replyKey {
	switch m.Type {
	case wire.MsgPrepare, wire.MsgPrepared:
		return replyKey{typ: wire.MsgPrepared, id: m.Config}
	case wire.MsgRun, wire.MsgResult:
		return replyKey{typ: wire.MsgResult, id: m.Job, attempt: m.Attempt}
	}
	panic("cluster: replyKeyOf: message type has no matched reply")
}

// clusterConfig is one configuration: a shape of job placed across a
// fixed set of workers and, once provisioned, a live mesh between them.
type clusterConfig struct {
	id      uint64
	ranks   int
	members []*workerConn
	// addrs holds each member's data address until the first run
	// succeeds: that run carries them and wires the mesh, so warm runs
	// carry none. Guarded by the shape's run lock.
	addrs []string
	// lost is set when a member died: a job that failed on this
	// configuration may retry over the reshaped fleet.
	lost atomic.Bool
	// stale is set when the fleet changed in a way this busy
	// configuration should react to (retireLocked) — a join that would
	// let the shape spread wider, or a member starting to drain. The
	// last job to let go of it drops it; unlike lost, nothing about the
	// prepared state is broken, so a run already in flight finishes
	// normally.
	stale atomic.Bool
}

// configEntry is the scheduler's per-shape slot: its run lock
// serializes provisioning and runs of one shape (the prepared mesh and
// payload rows are single-run state) while other shapes proceed
// concurrently on their own entries. The lock is a 1-slot channel, not
// a mutex, so a job waiting its turn can abandon the wait the moment
// it is cancelled or the coordinator closes — a cancelled job must not
// pin a scheduler slot for the length of its predecessors' runs.
// active counts jobs currently holding (or waiting on) the run lock;
// an entry may only leave the map once no job references it, or a
// later same-shape job would mint a second run lock and break the
// shape's mutual exclusion.
type configEntry struct {
	key string
	// label is the shape's metric label (shapeLabel), rendered once
	// when the entry is created.
	label string
	lock  chan struct{} // buffered(1): send acquires, receive releases
	// cfg, active and lastUsed are guarded by Coordinator.mu.
	cfg    *clusterConfig
	active int
	// lastUsed orders entries for LRU eviction under the MaxConfigs
	// cap; stamped every time a job takes a reference.
	lastUsed time.Time
}

// errWorkerLost marks failures caused by a worker leaving the fleet —
// the retryable class, as opposed to invalid specs or run errors.
var errWorkerLost = errors.New("worker lost")

// errCancelled marks calls abandoned because their job was cancelled.
var errCancelled = errors.New("job cancelled")

// job is one accepted client submission.
type job struct {
	id      uint64 // coordinator-wide: workers, logs
	ref     uint64 // the client's id, unique on its connection: cancel, done
	spec    wire.AppSpec
	key     string
	attempt int
	client  *clientConn
	// enqueued stamps admission, the epoch for the queue-wait and
	// end-to-end latency histograms.
	enqueued time.Time

	// cancel fires when the job should stop occupying the fleet: the
	// client disconnected or sent an explicit cancel. cancelReason is
	// written before the close and read only after <-cancel.
	cancel       chan struct{}
	cancelOnce   sync.Once
	cancelReason string
}

func (j *job) cancelNow(reason string) {
	j.cancelOnce.Do(func() {
		j.cancelReason = reason
		close(j.cancel)
	})
}

// clientConn tracks one client control connection's in-flight jobs,
// keyed by the client's ids, so a cancel can find one and a disconnect
// can cancel all of them.
type clientConn struct {
	mc *msgConn

	mu   sync.Mutex
	jobs map[uint64]*job
	gone bool
}

// Start launches a coordinator listening on opts.Listen.
func Start(opts Options) (*Coordinator, error) {
	opts.fill()
	// Workers heartbeat and the monitor sweeps once per interval: below
	// a millisecond those tickers would flood the control plane.
	if opts.HeartbeatInterval < time.Millisecond {
		return nil, fmt.Errorf("cluster: heartbeat interval %v is below 1ms", opts.HeartbeatInterval)
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", opts.Listen, err)
	}
	c := &Coordinator{
		opts:         opts,
		ln:           ln,
		workers:      map[int64]*workerConn{},
		fleetChanged: make(chan struct{}),
		configs:      map[string]*configEntry{},
		conns:        map[*msgConn]struct{}{},
		queue:        make(chan *job, opts.QueueDepth),
		done:         make(chan struct{}),
	}
	c.metrics = newCoordMetrics(opts)
	if opts.HTTPAddr != "" {
		srv, err := startHTTPServer(c, opts.HTTPAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.http = srv
	}
	c.wg.Add(2 + opts.Concurrency)
	go c.acceptLoop()
	go c.monitorHeartbeats()
	for i := 0; i < opts.Concurrency; i++ {
		go c.scheduleSlot()
	}
	opts.Logf("cluster: coordinator listening on %s (%d scheduler slots)", ln.Addr(), opts.Concurrency)
	return c, nil
}

// Addr returns the control address the coordinator is listening on.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats returns a snapshot of the coordinator's counters and gauges:
// the fleet and queue gauges from sample, every counter from the
// metrics registry (metrics.go).
func (c *Coordinator) Stats() Stats {
	s := c.sample()
	m := c.metrics
	s.ConfigsBuilt = int(m.configsBuilt.Value())
	s.JobsRun = int(m.jobsCompleted.Value())
	s.JobsFailed = int(m.jobsFailed.Value())
	s.JobsInFlight = int(m.inFlight.Value())
	s.JobsRunning = int(m.running.Value())
	s.JobsRetried = int(m.jobsRetried.Value())
	s.JobsRejected = int(m.jobsRejected.Value())
	s.JobsCancelled = int(m.jobsCancelled.Value())
	s.QueueCap = c.opts.QueueDepth
	s.Concurrency = c.opts.Concurrency
	s.MaxAttempts = c.opts.MaxAttempts
	s.ConfigsReprovisioned = int(m.configsReprovisioned.Value())
	s.ConfigsEvicted = int(m.configsEvicted.Value())
	s.ConfigCacheHits = int(m.cacheHits.Total())
	s.ConfigCacheMisses = int(m.cacheMisses.Total())
	if lat := m.jobLatency.Snapshot(); lat.Count > 0 {
		s.LatencyP50Nanos = int(lat.Quantile(0.50) * float64(time.Second))
		s.LatencyP95Nanos = int(lat.Quantile(0.95) * float64(time.Second))
		s.LatencyP99Nanos = int(lat.Quantile(0.99) * float64(time.Second))
	}
	return s
}

// WorkerCount returns the current live fleet size.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WaitWorkers blocks until at least n workers are registered, the
// timeout passes, or the coordinator closes. Registrations and deaths
// signal a fleet-change channel, so waiters wake the moment the fleet
// reaches n (no polling) and a zero timeout checks the fleet exactly
// once without waiting a tick. It returns the fleet size observed
// last, and an error if that is still below n.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		got := len(c.workers)
		changed := c.fleetChanged
		c.mu.Unlock()
		if got >= n {
			return got, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return got, fmt.Errorf("cluster: %d of %d workers registered after %v", got, n, timeout)
		}
		timer := time.NewTimer(remain)
		select {
		case <-c.done:
			timer.Stop()
			return got, fmt.Errorf("cluster: coordinator closed with %d of %d workers", got, n)
		case <-changed:
			timer.Stop()
		case <-timer.C:
			got := c.WorkerCount()
			return got, fmt.Errorf("cluster: %d of %d workers registered after %v", got, n, timeout)
		}
	}
}

// bumpFleetLocked wakes WaitWorkers waiters after a fleet change.
// Callers hold c.mu.
func (c *Coordinator) bumpFleetLocked() {
	close(c.fleetChanged)
	c.fleetChanged = make(chan struct{})
}

// Close shuts the coordinator down: the listener closes, queued jobs
// fail, and every control connection — workers and clients alike —
// drops, so the connection handlers (and with them wg.Wait) cannot
// stay blocked in reads on idle client connections.
func (c *Coordinator) Close() {
	c.stop.Do(func() {
		close(c.done)
		c.ln.Close()
		if c.http != nil {
			c.http.close()
		}
		c.mu.Lock()
		for mc := range c.conns {
			mc.close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		mc := newMsgConn(conn)
		// Control messages are single small frames: a peer that cannot
		// absorb one inside a minute has stopped reading. The deadline
		// turns such a peer into a write error (its handler then drops
		// the connection, cancelling its jobs) rather than a scheduler
		// slot parked in write forever.
		mc.writeTimeout = time.Minute
		c.mu.Lock()
		select {
		case <-c.done:
			// Raced with Close after it swept the registry; this
			// connection must not escape the sweep.
			c.mu.Unlock()
			mc.close()
			continue
		default:
		}
		c.conns[mc] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() {
				c.mu.Lock()
				delete(c.conns, mc)
				c.mu.Unlock()
				mc.close()
			}()
			c.handleConn(mc)
		}()
	}
}

// handleConn reads the first message of a fresh connection to decide
// whether its peer is a worker (register) or a client (submit).
func (c *Coordinator) handleConn(mc *msgConn) {
	m, err := mc.read()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			c.opts.Logf("cluster: %s: bad opening frame: %v", mc.remoteAddr(), err)
		}
		mc.close()
		return
	}
	switch m.Type {
	case wire.MsgRegister:
		c.serveWorker(mc, m)
	case wire.MsgSubmit, wire.MsgStats:
		// A stats-first connection is a client too: the load generator
		// polls utilization before (and while) it submits.
		c.serveClient(mc, m)
	default:
		c.opts.Logf("cluster: %s opened with unexpected %q", mc.remoteAddr(), m.Type)
		mc.close()
	}
}

// --- worker side ---------------------------------------------------

func (c *Coordinator) serveWorker(mc *msgConn, reg wire.Message) {
	w := &workerConn{
		name:    reg.Name,
		mc:      mc,
		waiters: map[replyKey]waiter{},
	}
	w.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	c.nextWorker++
	w.id = c.nextWorker
	c.mu.Unlock()
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	// Chaos scopes to worker conversations only: a client has no
	// timeout, so a dropped rejected or done would strand its waiter
	// rather than exercise a recoverable fault. Forked per worker
	// connection so concurrent workers cannot perturb each other's
	// schedules.
	mc.chaos = c.opts.Chaos.Fork(fmt.Sprintf("coord-worker-%d", w.id))
	// Welcome goes out before the worker is published: once it is in
	// c.workers a provisioning job may write prepare to it, and the
	// worker's first frame must be welcome.
	if err := mc.write(wire.Message{
		Type:           wire.MsgWelcome,
		Worker:         w.id,
		HeartbeatNanos: int64(c.opts.HeartbeatInterval),
	}); err != nil {
		c.opts.Logf("cluster: worker %q from %s: welcome: %v", w.name, mc.remoteAddr(), err)
		return
	}

	c.mu.Lock()
	// A named worker re-registering after a fast restart replaces its
	// stale fleet entry instead of double-counting slots: the old
	// connection is a corpse the heartbeat monitor has not yet noticed.
	var replaced *workerConn
	if reg.Name != "" {
		for _, old := range c.workers {
			if old.name == reg.Name {
				replaced = old
				break
			}
		}
	}
	c.workers[w.id] = w
	c.bumpFleetLocked()
	// Join-triggered growth: shapes squeezed onto fewer members than
	// they have ranks can spread wider now, so their next job
	// re-provisions over the grown fleet instead of reusing the narrow
	// mesh.
	retired := c.retireLocked(func(cfg *clusterConfig) bool { return cfg.ranks > len(cfg.members) })
	c.mu.Unlock()
	for _, cfg := range retired {
		c.releaseConfig(cfg, nil)
	}
	if replaced != nil {
		c.markDead(replaced, fmt.Errorf("replaced by re-registration from %s", mc.remoteAddr()))
	}
	c.opts.Logf("cluster: worker %q registered from %s", w.name, mc.remoteAddr())

	for {
		m, err := mc.read()
		if err != nil {
			c.markDead(w, fmt.Errorf("control connection: %w", err))
			return
		}
		w.lastSeen.Store(time.Now().UnixNano())
		switch m.Type {
		case wire.MsgHeartbeat:
			// lastSeen update above is the whole point.
		case wire.MsgPrepared, wire.MsgResult:
			w.route(m)
		case wire.MsgDrain:
			c.beginDrain(w)
		default:
			c.opts.Logf("cluster: worker %q sent unexpected %q", w.name, m.Type)
		}
	}
}

// markDead declares a worker dead exactly once: it leaves the fleet,
// every configuration it participated in is dropped (surviving members
// are told to release, which aborts any wedged run), and every wait on
// its replies fails immediately. The fleet map and config table are
// updated BEFORE the waits fail, so a job that observed the death and
// retries never re-provisions over a fleet still listing the corpse.
func (c *Coordinator) markDead(w *workerConn, cause error) {
	w.deadOnce.Do(func() {
		c.mu.Lock()
		delete(c.workers, w.id)
		c.bumpFleetLocked()
		if w.drainTimer != nil {
			w.drainTimer.Stop()
		}
		var torn []*clusterConfig
		for key, e := range c.configs {
			cfg := e.cfg
			if cfg == nil || !slices.Contains(cfg.members, w) {
				continue
			}
			cfg.lost.Store(true)
			e.cfg = nil
			if e.active == 0 {
				// Idle shape: nothing references the entry, so it can
				// leave the map right away.
				delete(c.configs, key)
			}
			torn = append(torn, cfg)
		}
		c.mu.Unlock()

		w.failWaits()
		w.mc.close()

		c.opts.Logf("cluster: worker %q dead (%v); dropped %d configs", w.name, cause, len(torn))
		for _, cfg := range torn {
			c.releaseConfig(cfg, w)
		}
	})
}

// releaseConfig tells every member except skip to drop a
// configuration, which may finish a member's drain. Best-effort:
// members may themselves be dying.
func (c *Coordinator) releaseConfig(cfg *clusterConfig, skip *workerConn) {
	for _, member := range cfg.members {
		if member == skip {
			continue
		}
		member.mc.write(wire.Message{Type: wire.MsgRelease, Config: cfg.id})
		c.finishDrainIfFree(member)
	}
}

// retireLocked sweeps the cache for the configurations a fleet change
// affects (pred): an idle one leaves now, counts as a re-provision and
// is returned for release outside c.mu; a busy one — provisioning
// included, since placement installs it under c.mu — is marked stale.
func (c *Coordinator) retireLocked(pred func(*clusterConfig) bool) []*clusterConfig {
	var idle []*clusterConfig
	for key, e := range c.configs {
		if e.cfg == nil || !pred(e.cfg) {
			continue
		}
		if e.active > 0 {
			e.cfg.stale.Store(true)
			continue
		}
		idle = append(idle, e.cfg)
		e.cfg = nil
		delete(c.configs, key)
		c.metrics.configsReprovisioned.Inc()
	}
	return idle
}

// beginDrain starts a worker's graceful departure: it leaves the
// placement pool at once (buildConfig skips draining workers) and its
// configurations are retired; releasing the last of them finishes the
// drain. Unlike the death path, nothing is torn out from under a
// running attempt. A drain that outlasts DrainTimeout falls back to
// the death path: configs torn, running attempts retried.
func (c *Coordinator) beginDrain(w *workerConn) {
	c.mu.Lock()
	if w.draining {
		c.mu.Unlock()
		return // duplicate drain announcement
	}
	w.draining = true
	w.drainTimer = time.AfterFunc(c.opts.DrainTimeout, func() {
		c.markDead(w, fmt.Errorf("drain timeout (%v)", c.opts.DrainTimeout))
	})
	retired := c.retireLocked(func(cfg *clusterConfig) bool { return slices.Contains(cfg.members, w) })
	c.bumpFleetLocked()
	c.mu.Unlock()
	c.opts.Logf("cluster: worker %q draining", w.name)
	for _, cfg := range retired {
		c.releaseConfig(cfg, nil)
	}
	c.finishDrainIfFree(w)
}

// finishDrainIfFree completes a drain once no cached configuration
// places ranks on the worker: it leaves the fleet and is told it may
// exit. Claiming deadOnce distinguishes drain from death: the read
// loop's later connection error, the heartbeat monitor and the drain
// timer become no-ops, so a drained worker causes no retries. A worker
// out of c.workers is left alone: markDead releases configs inside its
// own deadOnce, and must not wait on another dying worker's.
func (c *Coordinator) finishDrainIfFree(w *workerConn) {
	c.mu.Lock()
	free := w.draining && c.workers[w.id] == w
	for _, e := range c.configs {
		if !free {
			break
		}
		free = e.cfg == nil || !slices.Contains(e.cfg.members, w)
	}
	c.mu.Unlock()
	if !free {
		return
	}
	w.deadOnce.Do(func() {
		c.mu.Lock()
		delete(c.workers, w.id)
		c.bumpFleetLocked()
		w.drainTimer.Stop()
		c.mu.Unlock()
		w.failWaits()
		w.mc.write(wire.Message{Type: wire.MsgDrained, Worker: w.id})
		c.opts.Logf("cluster: worker %q drained and released", w.name)
	})
}

// monitorHeartbeats declares silent workers dead. Control-connection
// errors catch a killed process faster; the heartbeat timeout catches
// stalls and partitions where the connection stays open.
func (c *Coordinator) monitorHeartbeats() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-c.opts.HeartbeatTimeout).UnixNano()
		c.mu.Lock()
		var stale []*workerConn
		for _, w := range c.workers {
			if w.lastSeen.Load() < cutoff {
				stale = append(stale, w)
			}
		}
		c.mu.Unlock()
		for _, w := range stale {
			c.markDead(w, fmt.Errorf("heartbeat timeout (%v)", c.opts.HeartbeatTimeout))
		}
	}
}

// callAll writes msg(k) to each member k in turn and waits, on one
// channel, for every reply (replyKeyOf), returned in member order. It
// returns at the first failure — a reply whose Err is set, cancellation
// (errCancelled), the timeout, or a lost worker (wrapping errWorkerLost,
// the retryable class) — and callers then release the configuration,
// which aborts the other members' work, so failure latency is one
// member's detection time rather than the slowest member's timeout.
// With abort set, a reply whose Err is set calls abort instead, which
// must make every other member answer promptly, and the call returns
// that error once all have: a member's run error can be the echo of
// another member's crash that its control connection has yet to
// report, and the crash must still surface as errWorkerLost.
// Every wait is withdrawn on return and route deletes the one it
// delivers to, so a late or duplicate reply finds none. A lost worker
// has left c.workers before the error returns: a failed write declares
// it dead here (a control socket that cannot take one frame within the
// write deadline has lost its worker, heartbeats or not), and
// failWaits runs only after markDead or finishDrainIfFree updated the
// map.
func (c *Coordinator) callAll(members []*workerConn, msg func(k int) wire.Message, timeout time.Duration, cancel <-chan struct{}, abort func()) ([]wire.Message, error) {
	ch := make(chan reply, len(members))
	keys := make([]replyKey, 0, len(members))
	defer func() {
		for k, key := range keys {
			members[k].mu.Lock()
			delete(members[k].waiters, key)
			members[k].mu.Unlock()
		}
	}()
	for k, w := range members {
		m := msg(k)
		keys = append(keys, replyKeyOf(m))
		w.mu.Lock()
		if w.waiters == nil {
			w.mu.Unlock()
			return nil, fmt.Errorf("worker %q died: %w", w.name, errWorkerLost)
		}
		w.waiters[keys[k]] = waiter{ch: ch, k: k}
		w.mu.Unlock()
		if err := w.mc.write(m); err != nil {
			c.markDead(w, fmt.Errorf("write %s: %v", m.Type, err))
			return nil, fmt.Errorf("worker %q: write %s: %v: %w", w.name, m.Type, err, errWorkerLost)
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	replies := make([]wire.Message, len(members))
	var failed error
	for range members {
		select {
		case r := <-ch:
			if r.err != nil {
				return nil, r.err
			}
			if r.m.Err != "" && failed == nil {
				failed = fmt.Errorf("worker %q: %s", members[r.k].name, r.m.Err)
				if abort == nil {
					return nil, failed
				}
				abort()
			}
			replies[r.k] = r.m
		case <-cancel:
			return nil, errCancelled
		case <-timer.C:
			k := slices.IndexFunc(replies, func(m wire.Message) bool { return m.Type == "" })
			return nil, fmt.Errorf("worker %q: timed out waiting for %s %d", members[k].name, keys[k].typ, keys[k].id)
		}
	}
	return replies, failed
}

// route hands a reply to the wait for it, if one is still registered,
// and deletes that wait: a duplicate finds none.
func (w *workerConn) route(m wire.Message) {
	key := replyKeyOf(m)
	w.mu.Lock()
	wt, ok := w.waiters[key]
	delete(w.waiters, key)
	w.mu.Unlock()
	if ok {
		wt.ch <- reply{k: wt.k, m: m}
	}
}

// failWaits fails every wait on w's replies, and any registered later,
// with a worker-lost error. Callers have taken w out of c.workers.
func (w *workerConn) failWaits() {
	w.mu.Lock()
	waits := w.waiters
	w.waiters = nil
	w.mu.Unlock()
	for _, wt := range waits {
		wt.ch <- reply{k: wt.k, err: fmt.Errorf("worker %q died: %w", w.name, errWorkerLost)}
	}
}

// --- client side ---------------------------------------------------

// serveClient runs one client connection's read loop: submits are
// admitted (or rejected at once) and run concurrently by the scheduler
// slots, with done replies written as jobs finish under the id the
// client sent — multiple jobs may be in flight per connection. When
// the connection drops, every job it still has in flight is cancelled,
// so a vanished client stops occupying workers.
func (c *Coordinator) serveClient(mc *msgConn, first wire.Message) {
	cl := &clientConn{mc: mc, jobs: map[uint64]*job{}}
	m := first
loop:
	for {
		switch m.Type {
		case wire.MsgSubmit:
			if !c.admit(cl, m) {
				break loop
			}
		case wire.MsgCancel:
			cl.mu.Lock()
			j := cl.jobs[m.Job]
			cl.mu.Unlock()
			if j != nil {
				j.cancelNow("cancelled by client")
			}
		case wire.MsgStats:
			// Job is a client-chosen correlation id echoed verbatim, so
			// snapshots interleave freely with in-flight submissions. A
			// failed reply write means the client is gone — same
			// teardown rule as a failed rejected reply.
			s := c.Stats()
			if cl.mc.write(wire.Message{Type: wire.MsgStatsRply, Job: m.Job, Stats: &s}) != nil {
				break loop
			}
		default:
			c.opts.Logf("cluster: client %s sent unexpected %q", mc.remoteAddr(), m.Type)
			break loop
		}
		var err error
		if m, err = mc.read(); err != nil {
			break
		}
	}
	cl.mu.Lock()
	cl.gone = true
	inflight := make([]*job, 0, len(cl.jobs))
	for _, j := range cl.jobs {
		inflight = append(inflight, j)
	}
	cl.mu.Unlock()
	for _, j := range inflight {
		j.cancelNow("client disconnected")
	}
}

// Admission limits on what preparing one graph makes a worker allocate,
// past which prepare dies of a fatal error or wedges its control loop
// (DESIGN §9): steps size the rank plan's per-step window table, width
// × (2·output_bytes + scratch_bytes) its payload rows and scratch. The
// rank count sizes every worker's rank→address and [local][ranks] batch
// tables and the ranks²/2 mesh connections; 256 is the paper's largest
// node count.
const maxSteps, maxGraphBytes, maxRanks = 1 << 20, 1 << 30, 256

// admit validates and enqueues one submission, rejecting it at once
// if it cannot run (invalid spec, full queue, closing coordinator); an
// admitted job's verdict is its done. It never blocks on the queue —
// admission control is what keeps a full coordinator's submitters
// unblocked. A false return means the connection must be torn down:
// the submit reused an id still in flight on it, which the client
// could not tell apart from the first job's, or the rejected write
// failed because the client is gone (or has stopped draining its
// socket).
func (c *Coordinator) admit(cl *clientConn, m wire.Message) bool {
	// Checked before any reply: a rejected under this id would resolve
	// the first job's waiter.
	ref := m.Job
	cl.mu.Lock()
	_, dup := cl.jobs[ref]
	cl.mu.Unlock()
	if dup {
		c.opts.Logf("cluster: client %s reused job id %d", cl.mc.remoteAddr(), ref)
		return false
	}
	reject := func(format string, args ...any) bool {
		c.metrics.jobsRejected.Inc()
		return cl.mc.write(wire.Message{Type: wire.MsgRejected, Job: ref, Err: fmt.Sprintf(format, args...)}) == nil
	}
	if m.Spec == nil {
		return reject("submit without spec")
	}
	if err := m.Spec.Check(); err != nil {
		return reject("invalid spec: %v", err)
	}
	if m.Spec.Workers > maxRanks {
		return reject("invalid spec: %d workers exceed the limit %d", m.Spec.Workers, maxRanks)
	}
	for k := range m.Spec.Graphs {
		g, _ := m.Spec.Params(k) // valid: Check passed
		switch {
		case g.OutputBytes > tcp.MaxFrameLen:
			return reject("invalid spec: graph %d: output_bytes %d exceeds the mesh frame limit %d", k, g.OutputBytes, tcp.MaxFrameLen)
		case g.Timesteps > maxSteps:
			return reject("invalid spec: graph %d: %d steps exceed the limit %d", k, g.Timesteps, maxSteps)
		case g.ScratchBytes > maxGraphBytes || int64(g.MaxWidth) > maxGraphBytes/(2*int64(g.OutputBytes)+g.ScratchBytes):
			return reject("invalid spec: graph %d: width × (2·output_bytes + scratch_bytes) exceeds the limit of %d bytes", k, maxGraphBytes)
		}
	}
	c.mu.Lock()
	c.nextJob++
	id := c.nextJob
	c.mu.Unlock()
	j := &job{
		id:       id,
		ref:      ref,
		spec:     *m.Spec,
		key:      wire.ShapeKey(*m.Spec),
		client:   cl,
		enqueued: time.Now(),
		cancel:   make(chan struct{}),
	}
	cl.mu.Lock()
	cl.jobs[ref] = j
	cl.mu.Unlock()

	select {
	case <-c.done:
		cl.mu.Lock()
		delete(cl.jobs, ref)
		cl.mu.Unlock()
		return reject("coordinator shutting down")
	default:
	}
	select {
	case c.queue <- j:
	default:
		cl.mu.Lock()
		delete(cl.jobs, ref)
		cl.mu.Unlock()
		return reject("queue full (depth %d)", c.opts.QueueDepth)
	}
	return true
}

// deliver writes a job's done reply back to its submitting client,
// under the client's id, unless the client is gone.
func (c *Coordinator) deliver(j *job, done wire.Message) {
	cl := j.client
	cl.mu.Lock()
	delete(cl.jobs, j.ref)
	gone := cl.gone
	cl.mu.Unlock()
	if !gone {
		done.Job = j.ref
		cl.mc.write(done)
	}
}

// --- scheduler -----------------------------------------------------

// runVerdict classifies how one run attempt ended.
type runVerdict int

const (
	runOK        runVerdict = iota
	runFailed               // terminal failure: invalid provisioning or run error
	runRetryable            // a worker died under the job; may re-run
	runCancelled            // the job was cancelled mid-flight
)

// scheduleSlot is one of Options.Concurrency scheduler workers: each
// claims queued jobs and drives them to completion, so jobs of
// different shapes overlap across the fleet instead of serializing
// behind one loop.
func (c *Coordinator) scheduleSlot() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case j := <-c.queue:
			c.runQueued(j)
		}
	}
}

func (c *Coordinator) runQueued(j *job) {
	select {
	case <-j.cancel:
		// Cancelled while queued: the job never touched the fleet.
		c.metrics.jobsCancelled.Inc()
		c.deliver(j, wire.Message{Type: wire.MsgDone, Err: "cancelled: " + j.cancelReason})
		return
	default:
	}
	c.metrics.queueWait.ObserveDuration(time.Since(j.enqueued))
	c.metrics.inFlight.Add(1)
	done, verdict := c.runJobWithRetry(j)
	c.metrics.inFlight.Add(-1)
	if verdict == runCancelled {
		c.metrics.jobsCancelled.Inc()
	} else {
		c.metrics.jobsCompleted.Inc()
		if done.Err != "" {
			c.metrics.jobsFailed.Inc()
		}
		c.metrics.jobLatency.ObserveDuration(time.Since(j.enqueued))
	}
	c.deliver(j, done)
}

// runJobWithRetry drives one job through up to MaxAttempts runs:
// worker-death failures re-provision over the reshaped fleet and run
// again; every other outcome is final.
func (c *Coordinator) runJobWithRetry(j *job) (wire.Message, runVerdict) {
	for {
		done, verdict, failed := c.runJob(j)
		if verdict != runRetryable || j.attempt+1 >= c.opts.MaxAttempts {
			if verdict == runRetryable {
				// Retryable failure with no attempts left: the job gave
				// up — the class the fleet-sizing dashboards watch.
				c.metrics.jobsGaveUp.Inc()
			}
			return done, verdict
		}
		j.attempt++
		c.metrics.jobsRetried.Inc()
		c.opts.Logf("cluster: job %d re-queued (attempt %d/%d): %v", j.id, j.attempt+1, c.opts.MaxAttempts, done.Err)
		// A failed config needs no wait: every worker-lost error left
		// its worker out of c.workers before it returned (see callAll), so
		// the next placement already sees the reshaped fleet. No config
		// means every live worker is mid-drain, and only a join or a
		// completed drain changes that: wait for the next fleet change,
		// bounded by the heartbeat timeout.
		if failed == nil {
			c.mu.Lock()
			changed := c.fleetChanged
			c.mu.Unlock()
			deadline := time.NewTimer(c.opts.HeartbeatTimeout)
			select {
			case <-changed:
			case <-j.cancel:
			case <-c.done:
			case <-deadline.C:
			}
			deadline.Stop()
		}
	}
}

// entry returns (creating if needed) the scheduler entry of j's
// shape, taking a reference a matching releaseEntry must drop.
func (c *Coordinator) entry(j *job) *configEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.configs[j.key]
	if e == nil {
		e = &configEntry{key: j.key, label: shapeLabel(j.spec), lock: make(chan struct{}, 1)}
		c.configs[j.key] = e
	}
	e.active++
	e.lastUsed = time.Now()
	return e
}

// releaseEntry drops a job's reference. The last reference drops a
// stale configuration (a re-provision) and removes the emptied entry
// from the map, so shapes that no longer hold fleet state do not
// accumulate forever.
func (c *Coordinator) releaseEntry(e *configEntry) {
	c.mu.Lock()
	e.active--
	cfg := e.cfg
	if e.active > 0 || cfg != nil && !cfg.stale.Load() {
		c.mu.Unlock()
		return
	}
	e.cfg = nil
	if c.configs[e.key] == e {
		delete(c.configs, e.key)
	}
	c.mu.Unlock()
	if cfg != nil {
		c.metrics.configsReprovisioned.Inc()
		c.releaseConfig(cfg, nil)
	}
}

// runJob executes one attempt: acquire the shape's run lock, provision
// or reuse the shape's configuration, fan the run out, and classify
// the outcome for the retry machinery. On a retryable failure the
// third return names the configuration that failed; nil means none
// could be placed.
func (c *Coordinator) runJob(j *job) (wire.Message, runVerdict, *clusterConfig) {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgDone, Err: fmt.Sprintf(format, args...)}
	}

	e := c.entry(j)
	defer c.releaseEntry(e)
	select {
	case e.lock <- struct{}{}:
	case <-j.cancel:
		return fail("cancelled: %s", j.cancelReason), runCancelled, nil
	case <-c.done:
		return fail("coordinator shutting down"), runFailed, nil
	}
	defer func() { <-e.lock }()

	c.mu.Lock()
	cfg := e.cfg
	c.mu.Unlock()
	if cfg != nil && cfg.stale.Load() {
		// The fleet changed under this configuration (join growth or a
		// draining member) while this job waited its turn. Holding the
		// shape's run lock, drop it and provision fresh over the current
		// fleet.
		c.metrics.configsReprovisioned.Inc()
		c.dropConfig(e, cfg)
		cfg = nil
	}
	if cfg == nil {
		// Cache miss, counted at lookup whether or not the build then
		// succeeds.
		c.metrics.cacheMisses.With(e.label).Inc()
		var err error
		cfg, err = c.buildConfig(e, j.spec, j.cancel)
		if err != nil {
			if errors.Is(err, errCancelled) {
				return fail("cancelled: %s", j.cancelReason), runCancelled, nil
			}
			verdict := runFailed
			if errors.Is(err, errWorkerLost) {
				verdict = runRetryable
			}
			return fail("provision: %v", err), verdict, cfg
		}
		c.mu.Lock()
		evicted := c.evictColdLocked(e)
		c.mu.Unlock()
		c.metrics.configsBuilt.Inc()
		for _, victim := range evicted {
			c.releaseConfig(victim, nil)
		}
	} else {
		c.metrics.cacheHits.With(e.label).Inc()
	}

	// Run the job on every member and take the slowest worker's wall
	// time as the job's elapsed time. A configuration's first run also
	// carries the members' addresses, and each member wires its slice
	// of the mesh before it runs.
	c.metrics.running.Add(1)
	kernels := wire.KernelsOf(j.spec)
	results, err := c.callAll(cfg.members, func(int) wire.Message {
		return wire.Message{Type: wire.MsgRun, Config: cfg.id, Job: j.id, Attempt: j.attempt, Kernels: kernels, Addrs: cfg.addrs}
	}, c.opts.JobTimeout, j.cancel, func() { c.dropConfig(e, cfg) })
	c.metrics.running.Add(-1)
	if err != nil {
		// The configuration's mesh may be mid-abort (a dead member) or
		// still executing an abandoned run (a cancelled job); dropping
		// it frees the fleet, and the next job of this shape provisions
		// a fresh one over the current workers.
		c.dropConfig(e, cfg)
		if errors.Is(err, errCancelled) {
			return fail("cancelled: %s", j.cancelReason), runCancelled, nil
		}
		verdict := runFailed
		if cfg.lost.Load() || errors.Is(err, errWorkerLost) {
			verdict = runRetryable
		}
		return fail("run: %v", err), verdict, cfg
	}
	cfg.addrs = nil
	var elapsed int64
	for _, r := range results {
		if r.ElapsedNanos > elapsed {
			elapsed = r.ElapsedNanos
		}
	}
	return wire.Message{
		Type:         wire.MsgDone,
		ElapsedNanos: elapsed,
		Workers:      cfg.ranks,
	}, runOK, nil
}

// buildConfig places a new configuration of e's shape over the live
// fleet and provisions it. One c.mu section takes the fleet snapshot,
// assigns rank spans, takes the next config id and installs the config
// as e.cfg, so the join, drain and death sweeps see it from the moment
// it is placed. Then every member prepares (plan slice + data
// listener) and replies with its address, which the first run carries.
// On a provisioning error the config is dropped from e and released,
// and still returned alongside the error, so the retry path knows one
// was placed. Callers hold e's run lock.
func (c *Coordinator) buildConfig(e *configEntry, spec wire.AppSpec, cancel <-chan struct{}) (*clusterConfig, error) {
	c.mu.Lock()
	fleet := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		if w.draining {
			continue // announced departure: place nothing new on it
		}
		fleet = append(fleet, w)
	}
	if len(fleet) == 0 {
		total := len(c.workers)
		c.mu.Unlock()
		if total > 0 {
			// Every live worker is mid-drain: retryable, because a
			// replacement joining (or a drain completing) reshapes the
			// fleet — unlike an empty fleet, which is a standing error.
			return nil, fmt.Errorf("all %d workers draining: %w", total, errWorkerLost)
		}
		return nil, fmt.Errorf("no workers registered")
	}
	sort.Slice(fleet, func(a, b int) bool { return fleet[a].id < fleet[b].id })

	ranks := spec.Workers
	if ranks <= 0 {
		ranks = len(fleet)
	}
	c.nextConfig++
	// More workers than ranks: the excess idles. Member k hosts block k,
	// which a worker derives from the member count its first run
	// carries.
	cfg := &clusterConfig{id: c.nextConfig, ranks: ranks, members: fleet[:min(ranks, len(fleet))]}
	spans := exec.BlockAssign(ranks, len(cfg.members))
	e.cfg = cfg
	c.mu.Unlock()

	// Every member builds its local plan slice and binds its data
	// listener, replying with the address. All listeners are bound
	// before any run is written, so the first run's dials find them.
	prepared, err := c.callAll(cfg.members, func(k int) wire.Message {
		return wire.Message{Type: wire.MsgPrepare, Config: cfg.id, Spec: &spec, Ranks: ranks, RankLo: spans[k].Lo, RankHi: spans[k].Hi}
	}, c.opts.SetupTimeout, cancel, nil)
	if err != nil {
		c.dropConfig(e, cfg)
		return cfg, err
	}
	cfg.addrs = make([]string, len(prepared))
	for k, reply := range prepared {
		cfg.addrs[k] = reply.Addr
	}
	c.opts.Logf("cluster: config %d prepared: %d ranks over %d workers", cfg.id, ranks, len(cfg.members))
	return cfg, nil
}

// dropConfig removes a configuration from its entry and releases it on
// its members, unless it is gone already: whoever takes a configuration
// out of its entry releases it, once. Callers hold the entry's run lock.
func (c *Coordinator) dropConfig(e *configEntry, cfg *clusterConfig) {
	c.mu.Lock()
	mine := e.cfg == cfg
	if mine {
		e.cfg = nil
	}
	c.mu.Unlock()
	if mine {
		c.releaseConfig(cfg, nil)
	}
}

// evictColdLocked enforces the MaxConfigs cap: while more shapes hold
// prepared configurations than the cap allows, the least-recently-used
// entry with no active jobs is torn out of the map (nobody holds or
// awaits its run lock, so nothing can be mid-run on it). keep — the
// entry that just provisioned — is never a victim. Victims are
// returned for release outside c.mu. If every over-cap entry is busy,
// the fleet is genuinely that wide and the cap yields.
func (c *Coordinator) evictColdLocked(keep *configEntry) []*clusterConfig {
	var victims []*clusterConfig
	for {
		live := 0
		var oldest *configEntry
		for _, e := range c.configs {
			if e.cfg == nil {
				continue
			}
			live++
			if e == keep || e.active != 0 {
				continue
			}
			if oldest == nil || e.lastUsed.Before(oldest.lastUsed) {
				oldest = e
			}
		}
		if live <= c.opts.MaxConfigs || oldest == nil {
			return victims
		}
		victims = append(victims, oldest.cfg)
		oldest.cfg = nil
		delete(c.configs, oldest.key)
		c.metrics.configsEvicted.Inc()
	}
}
