package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/metrics"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// Listen is the control address; default "127.0.0.1:0".
	Listen string
	// HeartbeatInterval is how often workers must heartbeat; default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a silent worker dead; default 5×interval.
	HeartbeatTimeout time.Duration
	// SetupTimeout bounds configuration provisioning (plan build plus
	// mesh establishment) per worker; default 60s.
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
	// MaxConfigs caps how many shapes may hold a prepared configuration
	// (plans, payload rows, a live mesh) across the fleet at once;
	// default 32. Past the cap the least-recently-used idle shape is
	// evicted, so an elastic fleet reshaping under a long-tailed shape
	// mix recycles mesh state instead of accumulating it forever.
	MaxConfigs int
	// DrainTimeout bounds a graceful drain: a worker whose configs are
	// still busy after this long is treated as dead (configs torn,
	// running attempts retried) instead of holding its departure
	// hostage. Default JobTimeout.
	DrainTimeout time.Duration
	// HTTPAddr, when non-empty, serves the observability endpoints —
	// /metrics (Prometheus text exposition), /healthz, /snapshots.json —
	// on that address. Empty disables the HTTP server entirely.
	HTTPAddr string
	// SnapshotInterval is how often the metrics collector samples the
	// registry into the retained ring; default 1s. Only meaningful with
	// HTTPAddr set.
	SnapshotInterval time.Duration
	// SnapshotRetention is how many periodic snapshots the ring keeps
	// (oldest evicted first); default 300 — five minutes of history at
	// the default interval.
	SnapshotRetention int
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
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = time.Second
	}
	if o.SnapshotRetention <= 0 {
		o.SnapshotRetention = 300
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
	building     map[*clusterConfig]struct{} // configs mid-provision, not yet in an entry
	conns        map[*msgConn]struct{}       // every open control connection (workers and clients)
	nextWorker   int64
	nextConfig   uint64
	nextJob      uint64

	queue chan *job
	done  chan struct{}
	stop  sync.Once
	wg    sync.WaitGroup

	// metrics is the scrape-side instrumentation; always non-nil. The
	// HTTP server and collector only exist when Options.HTTPAddr is set.
	metrics   *coordMetrics
	collector *metrics.Collector
	http      *httpServer
}

// workerConn is the coordinator's view of one registered worker.
type workerConn struct {
	id       int64
	name     string
	mc       *msgConn
	lastSeen atomic.Int64 // unix nanos

	dead     chan struct{}
	deadOnce sync.Once

	// draining is guarded by Coordinator.mu: once set, buildConfig no
	// longer places configurations on this worker.
	draining bool

	mu      sync.Mutex
	waiters map[replyKey]chan wire.Message
}

// replyKey names the one reply a call waits for. Provisioning replies
// are matched on the config id; results on (job, attempt), so a stale
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
	case wire.MsgConnect, wire.MsgReady:
		return replyKey{typ: wire.MsgReady, id: m.Config}
	case wire.MsgRun, wire.MsgResult:
		return replyKey{typ: wire.MsgResult, id: m.Job, attempt: m.Attempt}
	}
	panic("cluster: replyKeyOf: message type has no matched reply")
}

// clusterConfig is one provisioned configuration: a shape of job
// prepared across a fixed set of workers, with a live mesh between
// them.
type clusterConfig struct {
	id      uint64
	key     string
	ranks   int
	members []*workerConn
	spans   []exec.Span
	// lost is set when a member died: a job that failed on this
	// configuration may retry over the reshaped fleet.
	lost atomic.Bool
	// stale is set when the fleet changed in a way this configuration
	// should react to — a join that would let the shape spread wider,
	// or a member starting to drain. The next job of the shape drops
	// and re-provisions instead of reusing; unlike lost, nothing about
	// the prepared state is broken, so a run already in flight finishes
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
	key  string
	lock chan struct{} // buffered(1): send acquires, receive releases
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
	id      uint64
	spec    wire.AppSpec
	key     string
	attempt int
	client  *clientConn
	// enqueued stamps admission, the epoch for the queue-wait and
	// end-to-end latency histograms.
	enqueued time.Time

	// cancel fires when the job should stop occupying the fleet: the
	// client disconnected, sent an explicit cancel, or the accepted ack
	// could not be delivered. cancelReason is written before the close
	// and read only after <-cancel.
	cancel       chan struct{}
	cancelOnce   sync.Once
	cancelReason string

	// acked closes once the accepted reply has been written (or its
	// write has failed), so a fast job's done cannot overtake its own
	// ack on the wire.
	acked chan struct{}
}

func (j *job) cancelNow(reason string) {
	j.cancelOnce.Do(func() {
		j.cancelReason = reason
		close(j.cancel)
	})
}

// clientConn tracks one client control connection's in-flight jobs so
// a disconnect can cancel all of them.
type clientConn struct {
	mc *msgConn

	mu   sync.Mutex
	jobs map[uint64]*job
	gone bool
}

// Start launches a coordinator listening on opts.Listen.
func Start(opts Options) (*Coordinator, error) {
	opts.fill()
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
		building:     map[*clusterConfig]struct{}{},
		conns:        map[*msgConn]struct{}{},
		queue:        make(chan *job, opts.QueueDepth),
		done:         make(chan struct{}),
	}
	c.metrics = newCoordMetrics(c)
	if opts.HTTPAddr != "" {
		srv, err := startHTTPServer(c, opts.HTTPAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.http = srv
		c.collector = metrics.StartCollector(c.metrics.reg, opts.SnapshotInterval, opts.SnapshotRetention)
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
// every counter is read from the metrics registry (metrics.go), the
// fleet and queue gauges from the coordinator's own state. It reads the
// registry before taking c.mu: CounterVec.Total and Histogram.Snapshot
// take their own locks, which rank below c.mu.
func (c *Coordinator) Stats() Stats {
	m := c.metrics
	hits := int(m.cacheHits.Total())
	s := Stats{
		ConfigsBuilt:         int(m.configsBuilt.Value()),
		ConfigsReused:        hits,
		JobsRun:              int(m.jobsCompleted.Value()),
		JobsFailed:           int(m.jobsFailed.Value()),
		JobsInFlight:         int(m.inFlight.Value()),
		JobsRunning:          int(m.running.Value()),
		JobsRetried:          int(m.jobsRetried.Value()),
		JobsRejected:         int(m.jobsRejected.Value()),
		JobsCancelled:        int(m.jobsCancelled.Value()),
		QueueCap:             c.opts.QueueDepth,
		Concurrency:          c.opts.Concurrency,
		MaxAttempts:          c.opts.MaxAttempts,
		ConfigsReprovisioned: int(m.configsReprovisioned.Value()),
		ConfigsEvicted:       int(m.configsEvicted.Value()),
		ConfigCacheHits:      hits,
		ConfigCacheMisses:    int(m.cacheMisses.Total()),
	}
	if lat := m.jobLatency.Snapshot(); lat.Count > 0 {
		s.LatencyP50Nanos = int(lat.Quantile(0.50) * float64(time.Second))
		s.LatencyP95Nanos = int(lat.Quantile(0.95) * float64(time.Second))
		s.LatencyP99Nanos = int(lat.Quantile(0.99) * float64(time.Second))
	}
	s.MaxHeartbeatAgeNanos = int(c.maxHeartbeatAgeNanos(time.Now()))
	c.mu.Lock()
	s.Workers = len(c.workers)
	s.WorkersDraining = c.drainingLocked()
	s.QueueLen = len(c.queue)
	c.mu.Unlock()
	return s
}

// drainingLocked counts mid-drain fleet members. Callers hold c.mu.
func (c *Coordinator) drainingLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.draining {
			n++
		}
	}
	return n
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
			return c.WorkerCount(), fmt.Errorf("cluster: %d of %d workers registered after %v", c.WorkerCount(), n, timeout)
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
		if c.collector != nil {
			c.collector.Stop()
		}
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
		dead:    make(chan struct{}),
		waiters: map[replyKey]chan wire.Message{},
	}
	w.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	c.nextWorker++
	w.id = c.nextWorker
	c.mu.Unlock()
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	// Chaos scopes to worker conversations only: the client admission
	// protocol matches replies to submits in FIFO order, so dropping a
	// client frame would desynchronize the connection rather than
	// exercise a recoverable fault. Forked per worker connection so
	// concurrent workers cannot perturb each other's schedules.
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
	// they have ranks can spread wider now — mark them stale so their
	// next job re-provisions over the grown fleet instead of reusing
	// the narrow mesh.
	for _, e := range c.configs {
		if e.cfg != nil && e.cfg.ranks > len(e.cfg.members) {
			e.cfg.stale.Store(true)
		}
	}
	c.mu.Unlock()
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
		case wire.MsgPrepared, wire.MsgReady, wire.MsgResult:
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
// are told to release, which aborts any wedged run), and any await on
// it fails immediately. The fleet map and config table are updated
// BEFORE the death signal fires, so a job that observed the death and
// retries never re-provisions over a fleet still listing the corpse.
func (c *Coordinator) markDead(w *workerConn, cause error) {
	w.deadOnce.Do(func() {
		c.mu.Lock()
		delete(c.workers, w.id)
		c.bumpFleetLocked()
		var torn []*clusterConfig
		for key, e := range c.configs {
			cfg := e.cfg
			if cfg == nil {
				continue
			}
			for _, member := range cfg.members {
				if member == w {
					cfg.lost.Store(true)
					e.cfg = nil
					if e.active == 0 {
						// Idle shape: nothing references the entry, so
						// it can leave the map right away.
						delete(c.configs, key)
					}
					torn = append(torn, cfg)
					break
				}
			}
		}
		c.mu.Unlock()

		close(w.dead)
		w.mc.close()

		c.opts.Logf("cluster: worker %q dead (%v); dropped %d configs", w.name, cause, len(torn))
		for _, cfg := range torn {
			c.releaseConfig(cfg, w)
		}
	})
}

// releaseConfig tells every member except skip to drop a
// configuration. Best-effort: members may themselves be dying.
func (c *Coordinator) releaseConfig(cfg *clusterConfig, skip *workerConn) {
	for _, member := range cfg.members {
		if member == skip {
			continue
		}
		member.mc.write(wire.Message{Type: wire.MsgRelease, Config: cfg.id})
	}
}

// configHas reports whether w is a member of cfg.
func configHas(cfg *clusterConfig, w *workerConn) bool {
	for _, member := range cfg.members {
		if member == w {
			return true
		}
	}
	return false
}

// beginDrain starts a worker's graceful departure: it leaves the
// placement pool immediately (buildConfig skips draining workers), its
// prepared configurations are marked stale so the next job of each
// shape re-provisions without it, and a drain goroutine waits for the
// configurations still pinning it to empty out before releasing it.
// Unlike the death path, nothing is torn out from under a running
// attempt — that is the whole point of draining.
func (c *Coordinator) beginDrain(w *workerConn) {
	c.mu.Lock()
	if w.draining {
		c.mu.Unlock()
		return // duplicate drain announcement
	}
	w.draining = true
	for _, e := range c.configs {
		if e.cfg != nil && configHas(e.cfg, w) {
			e.cfg.stale.Store(true)
		}
	}
	c.bumpFleetLocked()
	c.mu.Unlock()
	c.opts.Logf("cluster: worker %q draining", w.name)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.drainWorker(w)
	}()
}

// drainWorker waits until no configuration — prepared or mid-build —
// references the draining worker, proactively tearing down idle ones,
// then releases the worker with a drained reply. Configurations with
// jobs in flight (active references) are left to finish or to observe
// the stale flag themselves; freshly built ones that raced the drain
// announcement are re-marked stale every pass. A drain that exceeds
// DrainTimeout falls back to the death path: configs torn, running
// attempts retried — the worker leaves either way.
func (c *Coordinator) drainWorker(w *workerConn) {
	deadline := time.NewTimer(c.opts.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(c.opts.HeartbeatInterval / 4)
	defer tick.Stop()
	for {
		var idle []*clusterConfig
		busy := false
		c.mu.Lock()
		for key, e := range c.configs {
			cfg := e.cfg
			if cfg == nil || !configHas(cfg, w) {
				continue
			}
			// Re-mark every pass: a config built from a fleet snapshot
			// taken before the drain began can land here afterwards.
			cfg.stale.Store(true)
			if e.active > 0 {
				busy = true // a job holds or awaits this shape's run lock
				continue
			}
			// Idle prepared config pinning the drainer: tear it down now
			// rather than waiting for a next job of its shape that may
			// never come. The next job of the shape rebuilds it over the
			// post-drain fleet, so this counts as a re-provision.
			e.cfg = nil
			delete(c.configs, key)
			c.metrics.configsReprovisioned.Inc()
			idle = append(idle, cfg)
		}
		for cfg := range c.building {
			if configHas(cfg, w) {
				busy = true // mid-provision; invisible to the entry scan
			}
		}
		changed := c.fleetChanged
		c.mu.Unlock()
		for _, cfg := range idle {
			c.releaseConfig(cfg, nil)
		}
		if !busy && len(idle) == 0 {
			c.finishDrain(w)
			return
		}
		select {
		case <-changed:
		case <-tick.C:
		case <-w.dead:
			return // died (or was replaced) mid-drain: markDead handled it
		case <-c.done:
			return
		case <-deadline.C:
			c.opts.Logf("cluster: worker %q drain timed out after %v; falling back to death path", w.name, c.opts.DrainTimeout)
			c.markDead(w, fmt.Errorf("drain timeout (%v)", c.opts.DrainTimeout))
			return
		}
	}
}

// finishDrain completes a clean drain: the worker leaves the fleet and
// is told it may exit. Claiming deadOnce here is what distinguishes
// drain from death — the read loop's subsequent connection error and
// the heartbeat monitor both become no-ops, so a drained worker's
// departure produces zero worker-lost retries.
func (c *Coordinator) finishDrain(w *workerConn) {
	w.deadOnce.Do(func() {
		c.mu.Lock()
		delete(c.workers, w.id)
		c.bumpFleetLocked()
		c.mu.Unlock()
		close(w.dead)
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

// call registers interest in the reply to m (replyKeyOf), sends m, and
// waits for it — failing fast if the worker dies, the job is cancelled,
// or the timeout passes. A reply whose Err field is set is returned as an
// error. Worker-loss failures wrap errWorkerLost (the retryable
// class); cancellation returns errCancelled.
func (w *workerConn) call(m wire.Message, timeout time.Duration, cancel <-chan struct{}) (wire.Message, error) {
	key := replyKeyOf(m)
	ch := make(chan wire.Message, 1)
	w.mu.Lock()
	w.waiters[key] = ch
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.waiters, key)
		w.mu.Unlock()
	}()

	if err := w.mc.write(m); err != nil {
		return wire.Message{}, fmt.Errorf("worker %q: write %s: %v: %w", w.name, m.Type, err, errWorkerLost)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, fmt.Errorf("worker %q: %s", w.name, reply.Err)
		}
		return reply, nil
	case <-w.dead:
		return wire.Message{}, fmt.Errorf("worker %q died: %w", w.name, errWorkerLost)
	case <-cancel:
		return wire.Message{}, errCancelled
	case <-timer.C:
		return wire.Message{}, fmt.Errorf("worker %q: timed out waiting for %s %d", w.name, key.typ, key.id)
	}
}

// route hands a reply to the call waiting for it, if one still is.
func (w *workerConn) route(m wire.Message) {
	w.mu.Lock()
	ch := w.waiters[replyKeyOf(m)]
	w.mu.Unlock()
	if ch != nil {
		select {
		case ch <- m:
		default:
		}
	}
}

// --- client side ---------------------------------------------------

// serveClient runs one client connection's read loop: submits are
// admitted (accepted or rejected immediately) and run concurrently by
// the scheduler slots, with done replies written as jobs finish,
// matched by job id — multiple jobs may be in flight per connection.
// When the connection drops, every job it still has in flight is
// cancelled, so a vanished client stops occupying workers.
func (c *Coordinator) serveClient(mc *msgConn, first wire.Message) {
	cl := &clientConn{mc: mc, jobs: map[uint64]*job{}}
	m := first
loop:
	for {
		switch m.Type {
		case wire.MsgSubmit:
			if !c.admit(cl, m) {
				break loop // reply write failed: the client is gone
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
			// teardown rule as a failed admission reply.
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

// admit validates and enqueues one submission, answering immediately:
// accepted (job id, now queued) or rejected (invalid spec, full queue,
// closing coordinator). It never blocks on the queue — admission
// control is what keeps a full coordinator's submitters unblocked. A
// false return means the reply write failed: the client is gone (or
// has stopped draining its socket), and the connection must be torn
// down — clients match accepted/rejected replies to submissions in
// FIFO order, so serving further submits after a dropped reply would
// desynchronize every later job.
func (c *Coordinator) admit(cl *clientConn, m wire.Message) bool {
	reject := func(id uint64, format string, args ...any) bool {
		c.metrics.jobsRejected.Inc()
		return cl.mc.write(wire.Message{Type: wire.MsgRejected, Job: id, Err: fmt.Sprintf(format, args...)}) == nil
	}
	c.mu.Lock()
	c.nextJob++
	id := c.nextJob
	c.mu.Unlock()

	if m.Spec == nil {
		return reject(id, "submit without spec")
	}
	if _, err := m.Spec.ToApp(); err != nil {
		return reject(id, "invalid spec: %v", err)
	}
	j := &job{
		id:       id,
		spec:     *m.Spec,
		key:      wire.ShapeKey(*m.Spec),
		client:   cl,
		enqueued: time.Now(),
		cancel:   make(chan struct{}),
		acked:    make(chan struct{}),
	}
	cl.mu.Lock()
	cl.jobs[id] = j
	cl.mu.Unlock()

	select {
	case <-c.done:
		cl.mu.Lock()
		delete(cl.jobs, id)
		cl.mu.Unlock()
		return reject(id, "coordinator shutting down")
	default:
	}
	select {
	case c.queue <- j:
	default:
		cl.mu.Lock()
		delete(cl.jobs, id)
		cl.mu.Unlock()
		return reject(id, "queue full (depth %d)", c.opts.QueueDepth)
	}
	if cl.mc.write(wire.Message{Type: wire.MsgAccepted, Job: id}) != nil {
		// The ack never reached the client, so nobody is waiting for
		// this job: without cancellation it would still run over the
		// whole fleet for a peer that is already gone. (The caller
		// tears the connection down, cancelling any other jobs.)
		j.cancelNow("client disconnected before ack")
		close(j.acked)
		return false
	}
	close(j.acked)
	return true
}

// deliver writes a job's done reply back to its submitting client,
// after the accepted ack is on the wire and unless the client is gone.
func (c *Coordinator) deliver(j *job, done wire.Message) {
	<-j.acked
	cl := j.client
	cl.mu.Lock()
	delete(cl.jobs, j.id)
	gone := cl.gone
	cl.mu.Unlock()
	if !gone {
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
		c.deliver(j, wire.Message{Type: wire.MsgDone, Job: j.id, Err: "cancelled: " + j.cancelReason})
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
		c.waitMemberGone(failed, j)
	}
}

// waitMemberGone blocks until some member of a failed configuration
// has actually left the fleet, bounded by the heartbeat timeout (the
// slowest any death can take to land). A worker-lost write error can
// race ahead of markDead — the read loop has not yet noticed the
// corpse — and an immediate retry would re-provision over a fleet map
// still listing the dead worker, burning the whole attempt budget in
// microseconds. Waiting on membership (not merely on one fleet-change
// event, which an unrelated registration also fires) guarantees the
// retry sees a reshaped fleet. A retryable failure with no named
// configuration (every worker mid-drain) instead waits for any fleet
// change at all — a join or a completed drain is what unblocks it.
func (c *Coordinator) waitMemberGone(failed *clusterConfig, j *job) {
	deadline := time.NewTimer(c.opts.HeartbeatTimeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		gone := false
		if failed != nil {
			for _, member := range failed.members {
				if _, live := c.workers[member.id]; !live {
					gone = true
					break
				}
			}
		}
		changed := c.fleetChanged
		c.mu.Unlock()
		if gone {
			return
		}
		select {
		case <-changed:
			if failed == nil {
				return // any reshape at all is what the retry needs
			}
		case <-j.cancel:
			return
		case <-c.done:
			return
		case <-deadline.C:
			return
		}
	}
}

// entry returns (creating if needed) the scheduler entry of one
// shape, taking a reference a matching releaseEntry must drop.
func (c *Coordinator) entry(key string) *configEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.configs[key]
	if e == nil {
		e = &configEntry{key: key, lock: make(chan struct{}, 1)}
		c.configs[key] = e
	}
	e.active++
	e.lastUsed = time.Now()
	return e
}

// releaseEntry drops a job's reference; the last reference to an
// entry whose configuration is gone removes it from the map, so
// shapes that no longer hold fleet state do not accumulate forever.
func (c *Coordinator) releaseEntry(e *configEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.active--
	if e.active == 0 && e.cfg == nil && c.configs[e.key] == e {
		delete(c.configs, e.key)
	}
}

// runJob executes one attempt: acquire the shape's run lock, provision
// or reuse the shape's configuration, fan the run out, and classify
// the outcome for the retry machinery. On a retryable failure the
// third return names the configuration that failed, so the retry can
// wait for its dead member to actually leave the fleet.
func (c *Coordinator) runJob(j *job) (wire.Message, runVerdict, *clusterConfig) {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgDone, Job: j.id, Err: fmt.Sprintf(format, args...)}
	}

	e := c.entry(j.key)
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
		// draining member). Holding the shape's run lock, drop it and
		// provision fresh over the current fleet.
		c.metrics.configsReprovisioned.Inc()
		c.dropConfig(e, cfg)
		cfg = nil
	}
	if cfg == nil {
		// Cache miss, counted at lookup whether or not the build then
		// succeeds. CounterVec.With takes the vec's own lock, so it must
		// run outside c.mu.
		c.metrics.cacheMisses.With(shapeLabel(j.spec)).Inc()
		var err error
		cfg, err = c.buildConfig(j.key, j.spec, j.cancel)
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
		var evicted []*clusterConfig
		c.mu.Lock()
		e.cfg = cfg
		delete(c.building, cfg) // ownership handoff; see buildConfig
		evicted = c.evictColdLocked(e)
		c.mu.Unlock()
		c.metrics.configsBuilt.Inc()
		for _, victim := range evicted {
			c.releaseConfig(victim, nil)
		}
	} else {
		c.metrics.cacheHits.With(shapeLabel(j.spec)).Inc()
	}

	// Run the job on every member and take the slowest worker's wall
	// time as the job's elapsed time.
	c.metrics.running.Add(1)
	kernels := wire.KernelsOf(j.spec)
	// Snapshot the attempt number: fanout returns on the first error
	// without joining stragglers, so a late goroutine must not read
	// j.attempt after the retry loop has already incremented it (a
	// race, and a stale run stamped with the live attempt's key).
	attempt := j.attempt
	results := make([]wire.Message, len(cfg.members))
	err := fanout(cfg.members, func(k int, w *workerConn) error {
		reply, err := w.call(wire.Message{
			Type:    wire.MsgRun,
			Config:  cfg.id,
			Job:     j.id,
			Attempt: attempt,
			Kernels: kernels,
		}, c.opts.JobTimeout, j.cancel)
		results[k] = reply
		return err
	})
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
	var elapsed int64
	for _, r := range results {
		if r.ElapsedNanos > elapsed {
			elapsed = r.ElapsedNanos
		}
	}
	return wire.Message{
		Type:         wire.MsgDone,
		Job:          j.id,
		ElapsedNanos: elapsed,
		Workers:      cfg.ranks,
	}, runOK, nil
}

// buildConfig provisions a new configuration over the live fleet:
// assign rank spans, prepare every member (plan slice + data
// listener), then distribute the rank→address table and wait for the
// mesh to come up. On a provisioning error the partially built
// configuration is released and still returned (alongside the error),
// so the retry path knows which members the failure involved.
func (c *Coordinator) buildConfig(key string, spec wire.AppSpec, cancel <-chan struct{}) (*clusterConfig, error) {
	c.mu.Lock()
	fleet := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		if w.draining {
			continue // announced departure: place nothing new on it
		}
		fleet = append(fleet, w)
	}
	total := len(c.workers)
	c.nextConfig++
	id := c.nextConfig
	c.mu.Unlock()
	if len(fleet) == 0 {
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
	spans := exec.BlockAssign(ranks, len(fleet))
	cfg := &clusterConfig{id: id, key: key, ranks: ranks}
	for k, w := range fleet {
		if spans[k].Len() == 0 {
			continue // more workers than ranks: the excess idles
		}
		cfg.members = append(cfg.members, w)
		cfg.spans = append(cfg.spans, spans[k])
	}

	// Register the build so a concurrent drain sees the worker as busy
	// even before the configuration lands in its entry — the fleet
	// snapshot above may predate the drain announcement. On success the
	// registration stays: the caller clears it in the same critical
	// section that installs the config in its entry, so no instant
	// exists where a drain scan sees the config in neither place.
	c.mu.Lock()
	c.building[cfg] = struct{}{}
	c.mu.Unlock()
	unbuild := func() {
		c.mu.Lock()
		delete(c.building, cfg)
		c.mu.Unlock()
	}

	// Prepare: every member builds its local plan slice and binds its
	// data listener, replying with the address.
	addrs := make([]string, ranks)
	err := fanout(cfg.members, func(k int, w *workerConn) error {
		spec := spec
		reply, err := w.call(wire.Message{
			Type:   wire.MsgPrepare,
			Config: id,
			Spec:   &spec,
			Ranks:  ranks,
			RankLo: cfg.spans[k].Lo,
			RankHi: cfg.spans[k].Hi,
		}, c.opts.SetupTimeout, cancel)
		if err != nil {
			return err
		}
		for r := cfg.spans[k].Lo; r < cfg.spans[k].Hi; r++ {
			addrs[r] = reply.Addr
		}
		return nil
	})
	if err != nil {
		unbuild()
		c.releaseConfig(cfg, nil)
		return cfg, err
	}

	// Connect: all members wire the mesh concurrently — each one's
	// dials complete against the others' already-bound listeners.
	err = fanout(cfg.members, func(k int, w *workerConn) error {
		_, err := w.call(wire.Message{
			Type:   wire.MsgConnect,
			Config: id,
			Addrs:  addrs,
		}, c.opts.SetupTimeout, cancel)
		return err
	})
	if err != nil {
		unbuild()
		c.releaseConfig(cfg, nil)
		return cfg, err
	}
	c.opts.Logf("cluster: config %d ready: %d ranks over %d workers", id, ranks, len(cfg.members))
	return cfg, nil
}

// dropConfig removes a configuration from its entry and releases it on
// its members. Callers hold the entry's run lock.
func (c *Coordinator) dropConfig(e *configEntry, cfg *clusterConfig) {
	c.mu.Lock()
	if e.cfg == cfg {
		e.cfg = nil
	}
	c.mu.Unlock()
	c.releaseConfig(cfg, nil)
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

// fanout runs f concurrently over the members and returns on the
// *first* error — callers immediately release the configuration, which
// aborts the surviving members' in-flight work, so failure latency is
// one member's detection time rather than the slowest member's
// timeout. Stragglers drain into the buffered channel (no goroutine
// leaks); a nil return means every member completed.
func fanout(members []*workerConn, f func(k int, w *workerConn) error) error {
	errCh := make(chan error, len(members))
	for k, w := range members {
		go func(k int, w *workerConn) { errCh <- f(k, w) }(k, w)
	}
	for range members {
		if err := <-errCh; err != nil {
			return err
		}
	}
	return nil
}
