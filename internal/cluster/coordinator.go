package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
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
	// at least 1ms. It is also the coordinator's clock: every timeout
	// below is checked once per interval, so each fires within one
	// interval of its deadline.
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
	// Concurrency is the number of job slots — jobs that may be claimed
	// from the queue at once, whether provisioning, running, waiting
	// their shape's turn or waiting for the fleet to change; default 4.
	// Jobs of different shapes run concurrently on their own
	// configurations; jobs sharing a shape take turns on it (the
	// prepared mesh is single-run state) but pipeline over it without
	// re-provisioning.
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
// One goroutine, the loop, owns its state; every other goroutine posts
// it events, and it answers by queueing frames on connection writers.
type Coordinator struct {
	opts Options
	ln   net.Listener
	// events carries every input of the loop but its ticker. It is
	// unbuffered, so a posted event is one the loop has taken.
	events  chan event
	stopped chan struct{} // closed when the loop exits
	wg      sync.WaitGroup

	// metrics is the scrape-side instrumentation; always non-nil. The
	// HTTP server only exists when Options.HTTPAddr is set.
	metrics *coordMetrics
	http    *httpServer

	// Everything below belongs to the loop.
	closed  bool
	peers   map[*peer]struct{} // every open control connection
	workers map[int64]*workerConn
	configs map[string]*configEntry // by shape key
	// queue holds admitted jobs no slot has claimed, oldest first.
	queue   []*job
	claimed int // jobs holding a slot, at most Concurrency
	// calls maps a configuration id to the job awaiting its members'
	// replies: a shape runs one job at a time, so a configuration
	// carries at most one call.
	calls map[uint64]*job
	// parked holds retries waiting for the fleet to change.
	parked []*job
	// fleetGen counts fleet changes (registration, death, drain);
	// fleetChanged is closed and replaced at each, for WaitWorkers.
	fleetGen     uint64
	fleetChanged chan struct{}
	nextWorker   int64
	nextConfig   uint64
	nextJob      uint64
}

// event is one input to the loop: a frame or the final read error of
// a connection's reader, or a call fn from another goroutine, after
// which the loop closes done. j is a submit that passed admission's
// pure checks in the reader, reject why one did not.
type event struct {
	p      *peer
	m      wire.Message
	err    error
	j      *job
	reject string
	fn     func()
	done   chan struct{}
}

// peerQueue bounds the frames queued on one connection's writer: one
// loop step's most — a release per configuration, a prepare or run per
// slot, a done per queued or claimed job — plus 64 of slack. Only a
// peer that stops draining its socket fills it.
func (o *Options) peerQueue() int {
	return o.MaxConfigs + o.QueueDepth + 2*o.Concurrency + 64
}

// peer is one control connection: its reader posts every frame to the
// loop and its writer writes the frames the loop queues on out, so a
// slow or delayed write stalls that connection only.
type peer struct {
	mc  *msgConn
	out chan wire.Message
	// The loop's. The opening frame sets worker, or a client's jobs in
	// flight by its ids. Once closed, nothing is sent on out and every
	// arriving frame is dropped.
	worker *workerConn
	jobs   map[uint64]*job
	closed bool
}

// workerConn is the coordinator's view of one registered worker.
type workerConn struct {
	id       int64
	name     string
	p        *peer
	lastSeen time.Time
	// draining removes the worker from placement; drainBy is its
	// DrainTimeout deadline.
	draining bool
	drainBy  time.Time
}

// clusterConfig is one configuration: a shape of job placed across a
// fixed set of workers and, once provisioned, a live mesh between them.
type clusterConfig struct {
	id      uint64
	ranks   int
	members []*workerConn
	// addrs holds each member's data address until the first run
	// succeeds: that run carries them and wires the mesh, so warm runs
	// carry none. replied marks the members that answered the call in
	// flight.
	addrs   []string
	replied []bool
	// stale marks a busy configuration the fleet changed under (retire):
	// the job that next takes the shape, or the last to leave it, drops
	// it, while a run already in flight finishes normally.
	stale bool
}

// configEntry is one shape's place in the cache. A shape runs one job
// at a time — the prepared mesh and payload rows are single-run state
// — while other shapes proceed on their own entries: busy is set while
// a job holds the shape, and waiting holds the claimed jobs behind it,
// in claim order. An entry leaves the map only when idle, or a later
// job of its shape would find a second entry and run beside the first.
type configEntry struct {
	key string
	// label is the shape's metric label (shapeLabel), rendered once
	// when the entry is created.
	label   string
	cfg     *clusterConfig
	busy    bool
	waiting []*job
	// lastUsed orders entries for LRU eviction under the MaxConfigs
	// cap; stamped every time a job enters the shape.
	lastUsed time.Time
}

func (e *configEntry) idle() bool { return !e.busy && len(e.waiting) == 0 }

// errWorkerLost marks failures caused by a worker leaving the fleet —
// the retryable class, as opposed to invalid specs or run errors.
var errWorkerLost = errors.New("worker lost")

// jobState is where a job is in the loop's state machine (DESIGN §9).
// A job on a cached configuration skips provisioning, and a retryable
// failure claims the shape again at once, or parks until the fleet
// changes when no configuration could be placed.
type jobState uint8

const (
	jobQueued       jobState = iota // admitted, waiting for a slot
	jobWaiting                      // holds a slot; its shape is busy
	jobProvisioning                 // prepares sent, counting prepared replies
	jobRunning                      // runs sent, counting results
	jobGathering                    // a member failed the run: config released, waiting out the rest
	jobParked                       // a retry waiting for the fleet to change
)

// job is one accepted client submission.
type job struct {
	id      uint64 // coordinator-wide: workers, logs
	ref     uint64 // the client's id, unique on its connection: cancel, done
	spec    wire.AppSpec
	key     string
	kernels []wire.KernelSpec
	client  *peer
	// enqueued stamps admission, the epoch for the queue-wait and
	// end-to-end latency histograms.
	enqueued time.Time

	state   jobState
	attempt int
	entry   *configEntry   // its shape, from claim to verdict or retry
	cfg     *clusterConfig // the configuration a call is on
	pending int            // replies the call still awaits
	failed  string         // a run's first error reply
	elapsed int64          // the slowest member's wall time so far
	// deadline ends a call (SetupTimeout or JobTimeout) or a parked
	// wait (HeartbeatTimeout); a parked job waits for the fleet to move
	// past fleetGen.
	deadline time.Time
	fleetGen uint64
}

// Start launches a coordinator listening on opts.Listen.
func Start(opts Options) (*Coordinator, error) {
	opts.fill()
	// Workers heartbeat and the loop ticks once per interval: below a
	// millisecond those tickers would flood the control plane.
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
		events:       make(chan event),
		stopped:      make(chan struct{}),
		peers:        map[*peer]struct{}{},
		workers:      map[int64]*workerConn{},
		configs:      map[string]*configEntry{},
		queue:        make([]*job, 0, opts.QueueDepth),
		calls:        map[uint64]*job{},
		fleetChanged: make(chan struct{}),
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
	c.wg.Add(2)
	go c.acceptLoop()
	go c.loop()
	opts.Logf("cluster: coordinator listening on %s (%d job slots)", ln.Addr(), opts.Concurrency)
	return c, nil
}

// Addr returns the control address the coordinator is listening on.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// post hands ev to the loop; false once the loop has exited.
func (c *Coordinator) post(ev event) bool {
	select {
	case c.events <- ev:
		return true
	case <-c.stopped:
		return false
	}
}

// do runs fn on the loop and waits for it; false if the loop has
// exited, and fn did not run.
func (c *Coordinator) do(fn func()) bool {
	done := make(chan struct{})
	if !c.post(event{fn: fn, done: done}) {
		return false
	}
	<-done
	return true
}

// Stats returns a snapshot of the coordinator's counters and gauges:
// the fleet and queue gauges sampled on the loop, every counter from
// the metrics registry (metrics.go). After Close the gauges read zero.
func (c *Coordinator) Stats() Stats {
	var s Stats
	c.do(func() { s = c.sample() })
	return c.counted(s)
}

// WorkerCount returns the current live fleet size.
func (c *Coordinator) WorkerCount() int {
	n := 0
	c.do(func() { n = len(c.workers) })
	return n
}

// WaitWorkers blocks until at least n workers are registered, the
// timeout passes, or the coordinator closes. Registrations and deaths
// signal a fleet-change channel, so waiters wake the moment the fleet
// reaches n (no polling) and a zero timeout checks the fleet exactly
// once. It returns the fleet size observed last, and an error if that
// is still below n.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) (int, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		got := 0
		var changed chan struct{}
		if !c.do(func() { got, changed = len(c.workers), c.fleetChanged }) {
			return got, fmt.Errorf("cluster: coordinator closed with %d of %d workers", got, n)
		}
		if got >= n {
			return got, nil
		}
		select {
		case <-changed:
		case <-timer.C:
			return got, fmt.Errorf("cluster: %d of %d workers registered after %v", got, n, timeout)
		}
	}
}

// Close shuts the coordinator down and returns once every goroutine it
// started has exited: the listener and every control connection close,
// and with them each connection's reader and writer. Queued and running
// jobs end with their clients' connections.
func (c *Coordinator) Close() {
	c.do(c.shutdown)
	c.wg.Wait()
}

func (c *Coordinator) shutdown() {
	c.closed = true
	c.ln.Close()
	if c.http != nil {
		c.http.close()
	}
	for p := range c.peers {
		c.hangUp(p)
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p := &peer{mc: newMsgConn(conn), out: make(chan wire.Message, c.opts.peerQueue())}
		// Control messages are single small frames: a peer that cannot
		// absorb one inside a minute has stopped reading. The deadline
		// turns such a peer into a write error, which drops the
		// connection, rather than a writer parked forever.
		p.mc.writeTimeout = time.Minute
		if !c.do(func() { c.attach(p) }) {
			p.mc.close()
		}
	}
}

// attach registers an accepted connection and starts its reader and
// writer.
func (c *Coordinator) attach(p *peer) {
	c.peers[p] = struct{}{}
	c.wg.Add(2)
	go c.reader(p)
	go c.writer(p)
}

// reader decodes p's frames and posts each to the loop, then its final
// read error. A submit's pure admission checks run here, off the loop.
func (c *Coordinator) reader(p *peer) {
	defer c.wg.Done()
	for first := true; ; first = false {
		m, err := p.mc.read()
		if err != nil {
			if first && !errors.Is(err, io.EOF) {
				c.opts.Logf("cluster: %s: bad opening frame: %v", p.mc.remoteAddr(), err)
			}
			c.post(event{p: p, err: err})
			return
		}
		ev := event{p: p, m: m}
		if m.Type == wire.MsgSubmit {
			ev.j, ev.reject = admissible(m)
		}
		if !c.post(ev) {
			return
		}
	}
}

// writer writes the frames the loop queues on p.out, in order, until
// the loop hangs up. A failed write closes the connection, and the
// reader's error then reports the loss to the loop.
func (c *Coordinator) writer(p *peer) {
	defer c.wg.Done()
	for m := range p.out {
		if p.mc.write(m) != nil {
			p.mc.close()
		}
	}
}

// loop is the coordinator: it owns all state and acts on one event, or
// one tick, at a time.
func (c *Coordinator) loop() {
	defer c.wg.Done()
	defer close(c.stopped)
	tick := time.NewTicker(c.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case ev := <-c.events:
			c.handle(ev)
		case now := <-tick.C:
			c.tick(now)
		}
		if c.closed {
			return
		}
		c.settle()
	}
}

func (c *Coordinator) handle(ev event) {
	switch p := ev.p; {
	case ev.fn != nil:
		ev.fn()
		close(ev.done)
	case ev.err != nil:
		c.gone(p, ev.err)
	case p.closed:
		// Hung up: a frame read before the close is dropped.
	case p.worker != nil:
		c.workerFrame(p.worker, ev.m)
	case p.jobs != nil:
		c.clientFrame(p, ev)
	case ev.m.Type == wire.MsgRegister:
		c.register(p, ev.m)
	case ev.m.Type == wire.MsgSubmit, ev.m.Type == wire.MsgStats:
		// A stats-first connection is a client too: the load generator
		// polls utilization before (and while) it submits.
		p.jobs = map[uint64]*job{}
		c.clientFrame(p, ev)
	default:
		c.opts.Logf("cluster: %s opened with unexpected %q", p.mc.remoteAddr(), ev.m.Type)
		c.hangUp(p)
	}
}

// settle runs after every event: parked retries whose fleet changed or
// whose wait ran out claim their shape again, and free slots claim
// queued jobs.
func (c *Coordinator) settle() {
	if len(c.parked) > 0 {
		now := time.Now()
		for i := 0; i < len(c.parked); {
			j := c.parked[i]
			if j.fleetGen == c.fleetGen && now.Before(j.deadline) {
				i++
				continue
			}
			c.parked = slices.Delete(c.parked, i, i+1)
			c.enter(j)
		}
	}
	for len(c.queue) > 0 && c.claimed < c.opts.Concurrency {
		j := c.queue[0]
		c.queue = slices.Delete(c.queue, 0, 1)
		c.claimed++
		c.metrics.queueWait.ObserveDuration(time.Since(j.enqueued))
		c.metrics.inFlight.Add(1)
		c.enter(j)
	}
}

// tick is the heartbeat sweep and the clock of every deadline: a
// silent worker, a drain past DrainTimeout and a call past its
// SetupTimeout or JobTimeout each end here. (settle ends parked waits.)
func (c *Coordinator) tick(now time.Time) {
	// Go's map iteration skips an entry deleted before it is reached, so
	// a worker or call that an earlier step ended is not visited.
	cutoff := now.Add(-c.opts.HeartbeatTimeout)
	for _, w := range c.workers {
		switch {
		case w.lastSeen.Before(cutoff):
			c.markDead(w, fmt.Errorf("heartbeat timeout (%v)", c.opts.HeartbeatTimeout))
		case w.draining && now.After(w.drainBy):
			c.markDead(w, fmt.Errorf("drain timeout (%v)", c.opts.DrainTimeout))
		}
	}
	for _, j := range c.calls {
		if !now.After(j.deadline) {
			continue // a call begun during this loop has a later deadline
		}
		k := slices.Index(j.cfg.replied, false)
		what, id := wire.MsgPrepared, j.cfg.id
		if j.state != jobProvisioning {
			what, id = wire.MsgResult, j.id
		}
		c.endCall(j, runFailed, "worker %q: timed out waiting for %s %d", j.cfg.members[k].name, what, id)
	}
}

// send queues m on p's writer. A peer whose queue is full has stopped
// draining its socket: it is hung up, and its reader's error reports
// the loss.
func (c *Coordinator) send(p *peer, m wire.Message) {
	if p.closed {
		return
	}
	select {
	case p.out <- m:
	default:
		c.opts.Logf("cluster: %s stopped reading (%d frames queued); hanging up", p.mc.remoteAddr(), cap(p.out))
		c.hangUp(p)
	}
}

// hangUp closes p at once, discarding the frames still queued on its
// writer; nothing more is sent to p or read from it.
func (c *Coordinator) hangUp(p *peer) {
	if p.closed {
		return
	}
	p.closed = true
	p.mc.close()
	close(p.out)
}

// gone handles a reader's exit: a worker that had not left the fleet is
// dead, and a client's jobs in flight are cancelled, so a vanished
// client stops occupying workers.
func (c *Coordinator) gone(p *peer, err error) {
	c.hangUp(p)
	delete(c.peers, p)
	if w := p.worker; w != nil && c.workers[w.id] == w {
		c.markDead(w, fmt.Errorf("control connection: %w", err))
	}
	for _, j := range p.jobs {
		c.cancel(j, "client disconnected")
	}
}

// --- worker side -----------------------------------------------------

func (c *Coordinator) register(p *peer, reg wire.Message) {
	c.nextWorker++
	w := &workerConn{id: c.nextWorker, name: reg.Name, p: p, lastSeen: time.Now()}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	p.worker = w
	// Chaos scopes to worker conversations only: a client has no
	// timeout, so a dropped rejected or done would strand its waiter.
	// Forked per worker so workers cannot perturb each other's
	// schedules, and set before the first frame is queued to the writer.
	p.mc.chaos = c.opts.Chaos.Fork(fmt.Sprintf("coord-worker-%d", w.id))
	// Queued first, the welcome is the worker's first frame whatever
	// the loop sends it next.
	c.send(p, wire.Message{Type: wire.MsgWelcome, Worker: w.id, HeartbeatNanos: int64(c.opts.HeartbeatInterval)})

	// A named worker re-registering after a fast restart replaces its
	// stale fleet entry, a corpse the heartbeat sweep has yet to notice.
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
	c.fleetChange()
	// Join-triggered growth: a shape squeezed onto fewer members than
	// it has ranks re-provisions over the grown fleet.
	for _, cfg := range c.retire(func(cfg *clusterConfig) bool { return cfg.ranks > len(cfg.members) }) {
		c.releaseConfig(cfg)
	}
	if replaced != nil {
		c.markDead(replaced, fmt.Errorf("replaced by re-registration from %s", p.mc.remoteAddr()))
	}
	c.opts.Logf("cluster: worker %q registered from %s", w.name, p.mc.remoteAddr())
}

func (c *Coordinator) workerFrame(w *workerConn, m wire.Message) {
	w.lastSeen = time.Now()
	switch m.Type {
	case wire.MsgHeartbeat:
		// The lastSeen update above is the whole point.
	case wire.MsgPrepared:
		c.prepared(w, m)
	case wire.MsgResult:
		c.result(w, m)
	case wire.MsgDrain:
		c.beginDrain(w)
	default:
		c.opts.Logf("cluster: worker %q sent unexpected %q", w.name, m.Type)
	}
}

// fleetChange marks a registration, a death or a drain: parked retries
// try again, and WaitWorkers waiters wake.
func (c *Coordinator) fleetChange() {
	c.fleetGen++
	close(c.fleetChanged)
	c.fleetChanged = make(chan struct{})
}

// markDead declares a worker dead: every configuration it belongs to is
// torn out of the cache, it leaves the fleet (its calls retry over the
// reshaped fleet), and the surviving members are told to release, which
// aborts any wedged run.
func (c *Coordinator) markDead(w *workerConn, cause error) {
	var torn []*clusterConfig
	for key, e := range c.configs {
		if e.cfg == nil || !slices.Contains(e.cfg.members, w) {
			continue
		}
		torn = append(torn, e.cfg)
		e.cfg = nil
		if e.idle() {
			delete(c.configs, key)
		}
	}
	c.hangUp(w.p)
	c.opts.Logf("cluster: worker %q dead (%v); dropped %d configs", w.name, cause, len(torn))
	c.leaveFleet(w)
	for _, cfg := range torn {
		c.releaseConfig(cfg)
	}
}

// leaveFleet takes w out of the fleet, by death or a finished drain,
// and ends every call on a configuration w belongs to as worker lost:
// the retry places over a fleet that no longer lists w.
func (c *Coordinator) leaveFleet(w *workerConn) {
	delete(c.workers, w.id)
	c.fleetChange()
	for _, j := range c.calls {
		// A call begun during this loop, by a retry, cannot include w.
		if slices.Contains(j.cfg.members, w) {
			c.endCall(j, runRetryable, "worker %q left: %v", w.name, errWorkerLost)
		}
	}
}

// releaseConfig tells every member of a configuration to drop it (a
// dead one's connection is closed), which may finish a member's drain.
func (c *Coordinator) releaseConfig(cfg *clusterConfig) {
	for _, member := range cfg.members {
		c.send(member.p, wire.Message{Type: wire.MsgRelease, Config: cfg.id})
		c.finishDrainIfFree(member)
	}
}

// retire sweeps the cache for the configurations a fleet change
// affects (pred): an idle one leaves now, counts as a re-provision and
// is returned for release; a busy one — provisioning included, since
// placement installs it at once — is marked stale.
func (c *Coordinator) retire(pred func(*clusterConfig) bool) []*clusterConfig {
	var idle []*clusterConfig
	for key, e := range c.configs {
		if e.cfg == nil || !pred(e.cfg) {
			continue
		}
		if !e.idle() {
			e.cfg.stale = true
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
// placement pool at once and its configurations are retired; releasing
// the last of them finishes the drain. Unlike the death path, nothing
// is torn out from under a running attempt. A drain that outlasts
// DrainTimeout falls back to the death path (tick).
func (c *Coordinator) beginDrain(w *workerConn) {
	if w.draining {
		return // duplicate drain announcement
	}
	w.draining = true
	w.drainBy = time.Now().Add(c.opts.DrainTimeout)
	retired := c.retire(func(cfg *clusterConfig) bool { return slices.Contains(cfg.members, w) })
	c.fleetChange()
	c.opts.Logf("cluster: worker %q draining", w.name)
	for _, cfg := range retired {
		c.releaseConfig(cfg)
	}
	c.finishDrainIfFree(w)
}

// finishDrainIfFree completes a drain once no cached configuration
// places ranks on the worker: it leaves the fleet and is told it may
// exit. Having left, its later connection error, the heartbeat sweep
// and the drain deadline pass it by, so a drained worker causes no
// retries.
func (c *Coordinator) finishDrainIfFree(w *workerConn) {
	if !w.draining || c.workers[w.id] != w {
		return
	}
	for _, e := range c.configs {
		if e.cfg != nil && slices.Contains(e.cfg.members, w) {
			return
		}
	}
	c.leaveFleet(w)
	c.send(w.p, wire.Message{Type: wire.MsgDrained, Worker: w.id})
	c.opts.Logf("cluster: worker %q drained and released", w.name)
}

// --- client side -----------------------------------------------------

// clientFrame serves one client frame: submits are admitted (or
// rejected at once) and run concurrently by the job slots, with done
// replies queued as jobs finish under the id the client sent —
// multiple jobs may be in flight per connection.
func (c *Coordinator) clientFrame(p *peer, ev event) {
	switch m := ev.m; m.Type {
	case wire.MsgSubmit:
		c.admit(p, ev)
	case wire.MsgCancel:
		if j := p.jobs[m.Job]; j != nil {
			c.cancel(j, "cancelled by client")
		}
	case wire.MsgStats:
		// Job is a client-chosen correlation id echoed verbatim, so
		// snapshots interleave freely with in-flight submissions.
		s := c.counted(c.sample())
		c.send(p, wire.Message{Type: wire.MsgStatsRply, Job: m.Job, Stats: &s})
	default:
		c.opts.Logf("cluster: client %s sent unexpected %q", p.mc.remoteAddr(), m.Type)
		c.hangUp(p)
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

// admissible is admission's pure half, run by the connection's reader:
// the spec must pass Spec.Check and the limits above. It returns the
// job to queue, or why the submit is rejected.
func admissible(m wire.Message) (*job, string) {
	if m.Spec == nil {
		return nil, "submit without spec"
	}
	if err := m.Spec.Check(); err != nil {
		return nil, fmt.Sprintf("invalid spec: %v", err)
	}
	if m.Spec.Workers > maxRanks {
		return nil, fmt.Sprintf("invalid spec: %d workers exceed the limit %d", m.Spec.Workers, maxRanks)
	}
	for k := range m.Spec.Graphs {
		g, _ := m.Spec.Params(k) // valid: Check passed
		switch {
		case g.OutputBytes > tcp.MaxFrameLen:
			return nil, fmt.Sprintf("invalid spec: graph %d: output_bytes %d exceeds the mesh frame limit %d", k, g.OutputBytes, tcp.MaxFrameLen)
		case g.Timesteps > maxSteps:
			return nil, fmt.Sprintf("invalid spec: graph %d: %d steps exceed the limit %d", k, g.Timesteps, maxSteps)
		case g.ScratchBytes > maxGraphBytes || int64(g.MaxWidth) > maxGraphBytes/(2*int64(g.OutputBytes)+g.ScratchBytes):
			return nil, fmt.Sprintf("invalid spec: graph %d: width × (2·output_bytes + scratch_bytes) exceeds the limit of %d bytes", k, maxGraphBytes)
		}
	}
	return &job{
		ref:      m.Job,
		spec:     *m.Spec,
		key:      wire.ShapeKey(*m.Spec),
		kernels:  wire.KernelsOf(*m.Spec),
		enqueued: time.Now(),
	}, ""
}

// admit queues one submission, or rejects it at once if it cannot run
// (invalid spec, full queue); an admitted job's verdict is its done.
// Admission never waits for the queue — that is what keeps a full
// coordinator's submitters unblocked. A submit reusing an id still in
// flight on its connection hangs the connection up: the client could
// not tell the two jobs' verdicts apart.
func (c *Coordinator) admit(p *peer, ev event) {
	// Checked before any reply: a rejected under this id would resolve
	// the first job's waiter.
	ref := ev.m.Job
	if _, dup := p.jobs[ref]; dup {
		c.opts.Logf("cluster: client %s reused job id %d", p.mc.remoteAddr(), ref)
		c.hangUp(p)
		return
	}
	reject := ev.reject
	if reject == "" && len(c.queue) >= c.opts.QueueDepth {
		reject = fmt.Sprintf("queue full (depth %d)", c.opts.QueueDepth)
	}
	if reject != "" {
		c.metrics.jobsRejected.Inc()
		c.send(p, wire.Message{Type: wire.MsgRejected, Job: ref, Err: reject})
		return
	}
	j := ev.j
	c.nextJob++
	j.id, j.client = c.nextJob, p
	p.jobs[ref] = j
	c.queue = append(c.queue, j)
}

// deliver queues a job's done reply to its client, under the client's
// id; a hung-up client is sent nothing.
func (c *Coordinator) deliver(j *job, done wire.Message) {
	delete(j.client.jobs, j.ref)
	done.Job = j.ref
	c.send(j.client, done)
}

// --- jobs ------------------------------------------------------------

// runVerdict classifies how one run attempt ended.
type runVerdict int

const (
	runOK        runVerdict = iota
	runFailed               // terminal failure: invalid provisioning or run error
	runRetryable            // a worker left under the job; may re-run
	runCancelled            // the job was cancelled mid-flight
)

// enter claims j's shape: at once if it is free, else behind the jobs
// already waiting for it.
func (c *Coordinator) enter(j *job) {
	e := c.configs[j.key]
	if e == nil {
		e = &configEntry{key: j.key, label: shapeLabel(j.spec)}
		c.configs[j.key] = e
	}
	e.lastUsed = time.Now()
	j.entry = e
	if e.busy {
		j.state = jobWaiting
		e.waiting = append(e.waiting, j)
		return
	}
	e.busy = true
	c.attempt(j)
}

// leave gives up j's hold on its shape, which the next waiting job
// takes. With none waiting, a stale configuration is dropped (a
// re-provision), and an entry holding no configuration leaves the map,
// so shapes that no longer hold fleet state do not accumulate.
func (c *Coordinator) leave(j *job) {
	e := j.entry
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		e.waiting = slices.Delete(e.waiting, 0, 1)
		c.attempt(next)
		return
	}
	e.busy = false
	cfg := e.cfg
	if cfg != nil && !cfg.stale {
		return
	}
	e.cfg = nil
	delete(c.configs, e.key)
	if cfg != nil {
		c.metrics.configsReprovisioned.Inc()
		c.releaseConfig(cfg)
	}
}

// attempt runs one attempt of j, which holds its shape: provision a
// configuration unless the shape has a usable one, then run.
func (c *Coordinator) attempt(j *job) {
	e := j.entry
	cfg := e.cfg
	if cfg != nil && cfg.stale {
		// The fleet changed under this configuration (join growth or a
		// draining member) while it was busy. Holding the shape, drop
		// it and provision fresh over the current fleet.
		c.metrics.configsReprovisioned.Inc()
		c.dropConfig(e, cfg)
		cfg = nil
	}
	if cfg != nil {
		c.metrics.cacheHits.With(e.label).Inc()
		c.run(j, cfg)
		return
	}
	// Cache miss, counted at lookup whether or not the build then
	// succeeds.
	c.metrics.cacheMisses.With(e.label).Inc()
	cfg, err := c.place(e, j.spec)
	if err != nil {
		verdict := runFailed
		if errors.Is(err, errWorkerLost) {
			verdict = runRetryable
		}
		c.endAttempt(j, failDone("provision: %v", err), verdict, false)
		return
	}
	// Every member builds its local plan slice and binds its data
	// listener, replying with the address. All listeners are bound
	// before any run is sent, so the first run's dials find them.
	c.call(j, cfg, jobProvisioning, c.opts.SetupTimeout)
	spans := exec.BlockAssign(cfg.ranks, len(cfg.members))
	for k, w := range cfg.members {
		c.send(w.p, wire.Message{Type: wire.MsgPrepare, Config: cfg.id, Spec: &j.spec, Ranks: cfg.ranks, RankLo: spans[k].Lo, RankHi: spans[k].Hi})
	}
}

// place places a new configuration of e's shape over the live,
// non-draining fleet and installs it as e.cfg, so the join, drain and
// death sweeps see it from the moment it is placed.
func (c *Coordinator) place(e *configEntry, spec wire.AppSpec) (*clusterConfig, error) {
	fleet := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.draining { // announced departure: place nothing new on it
			fleet = append(fleet, w)
		}
	}
	if len(fleet) == 0 {
		if len(c.workers) > 0 {
			// Every live worker is mid-drain: retryable, because a
			// replacement joining (or a drain completing) reshapes the
			// fleet — unlike an empty fleet, which is a standing error.
			return nil, fmt.Errorf("all %d workers draining: %w", len(c.workers), errWorkerLost)
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
	members := fleet[:min(ranks, len(fleet))]
	e.cfg = &clusterConfig{
		id:      c.nextConfig,
		ranks:   ranks,
		members: members,
		addrs:   make([]string, len(members)),
		replied: make([]bool, len(members)),
	}
	return e.cfg, nil
}

// run sends j's run to every member of cfg. A configuration's first run
// also carries the members' addresses, and each member wires its slice
// of the mesh before it runs.
func (c *Coordinator) run(j *job, cfg *clusterConfig) {
	c.metrics.running.Add(1)
	c.call(j, cfg, jobRunning, c.opts.JobTimeout)
	m := wire.Message{Type: wire.MsgRun, Config: cfg.id, Job: j.id, Attempt: j.attempt, Kernels: j.kernels, Addrs: cfg.addrs}
	for _, w := range cfg.members {
		c.send(w.p, m)
	}
}

// call starts counting the replies to a fleet call on cfg: one per
// member, matched by answer.
func (c *Coordinator) call(j *job, cfg *clusterConfig, state jobState, timeout time.Duration) {
	j.state, j.cfg = state, cfg
	j.pending, j.failed, j.elapsed = len(cfg.members), "", 0
	j.deadline = time.Now().Add(timeout)
	clear(cfg.replied)
	c.calls[cfg.id] = j
}

// answer matches a member's reply to the call in flight on its
// configuration — a prepared to a provisioning call, a result to the
// run of its (job, attempt) — and counts it. A late, stale or duplicate
// reply matches nothing and is dropped.
func (c *Coordinator) answer(w *workerConn, m wire.Message) (*job, int) {
	j := c.calls[m.Config]
	if j == nil || (m.Type == wire.MsgPrepared) != (j.state == jobProvisioning) ||
		m.Type == wire.MsgResult && (m.Job != j.id || m.Attempt != j.attempt) {
		return nil, 0
	}
	k := slices.Index(j.cfg.members, w)
	if k < 0 || j.cfg.replied[k] {
		return nil, 0
	}
	j.cfg.replied[k] = true
	j.pending--
	return j, k
}

func (c *Coordinator) prepared(w *workerConn, m wire.Message) {
	j, k := c.answer(w, m)
	switch {
	case j == nil:
	case m.Err != "":
		c.endCall(j, runFailed, "worker %q: %s", w.name, m.Err)
	default:
		j.cfg.addrs[k] = m.Addr
		if j.pending > 0 {
			return
		}
		cfg := j.cfg
		c.opts.Logf("cluster: config %d prepared: %d ranks over %d workers", cfg.id, cfg.ranks, len(cfg.members))
		delete(c.calls, cfg.id)
		c.evictCold(j.entry)
		c.metrics.configsBuilt.Inc()
		c.run(j, cfg)
	}
}

// result counts a run's reply. An error reply releases the
// configuration at once, which aborts the other members' run, and the
// job gathers their replies before it fails: a member's run error can
// be the echo of another member's crash that its control connection has
// yet to report, and the crash must still end the call as worker lost.
func (c *Coordinator) result(w *workerConn, m wire.Message) {
	j, _ := c.answer(w, m)
	if j == nil {
		return
	}
	if m.Err != "" && j.failed == "" {
		j.failed = fmt.Sprintf("worker %q: %s", w.name, m.Err)
		j.state = jobGathering
		if j.pending > 0 {
			// Releasing may finish a draining member's departure, which
			// ends this call as worker lost: nothing of j is ours after.
			c.dropConfig(j.entry, j.cfg)
			return
		}
	}
	j.elapsed = max(j.elapsed, m.ElapsedNanos)
	switch {
	case j.pending > 0:
	case j.failed != "":
		c.endCall(j, runFailed, "%s", j.failed)
	default:
		// The slowest worker's wall time is the job's.
		cfg := j.cfg
		c.metrics.running.Add(-1)
		delete(c.calls, cfg.id)
		cfg.addrs = nil
		c.endAttempt(j, wire.Message{Type: wire.MsgDone, ElapsedNanos: j.elapsed, Workers: cfg.ranks}, runOK, true)
	}
}

// stopCall abandons j's call in flight and drops its configuration —
// its mesh may be mid-abort or still executing the abandoned run — so
// the shape's next job provisions a fresh one over the current fleet.
// It returns the call's phase, for the verdict.
func (c *Coordinator) stopCall(j *job) string {
	phase := "provision"
	if j.state != jobProvisioning {
		phase = "run"
		c.metrics.running.Add(-1)
	}
	delete(c.calls, j.cfg.id)
	c.dropConfig(j.entry, j.cfg)
	return phase
}

// endCall fails j's call in flight.
func (c *Coordinator) endCall(j *job, verdict runVerdict, format string, args ...any) {
	phase := c.stopCall(j)
	c.endAttempt(j, failDone(phase+": "+format, args...), verdict, true)
}

// endAttempt ends j's attempt and lets go of its shape. A retryable
// failure with attempts left claims the shape again — at once if a
// configuration was placed, since its failure left the fleet reshaped
// already, or once the fleet changes (bounded by HeartbeatTimeout) if
// none could be placed: every live worker is mid-drain. Any other
// outcome is the job's verdict.
func (c *Coordinator) endAttempt(j *job, done wire.Message, verdict runVerdict, placed bool) {
	c.leave(j)
	if verdict != runRetryable || j.attempt+1 >= c.opts.MaxAttempts {
		if verdict == runRetryable {
			// Retryable failure with no attempts left: the job gave up —
			// the class the fleet-sizing dashboards watch.
			c.metrics.jobsGaveUp.Inc()
		}
		c.finish(j, done, verdict)
		return
	}
	j.attempt++
	c.metrics.jobsRetried.Inc()
	c.opts.Logf("cluster: job %d re-queued (attempt %d/%d): %v", j.id, j.attempt+1, c.opts.MaxAttempts, done.Err)
	if placed {
		c.enter(j)
		return
	}
	j.state = jobParked
	j.deadline = time.Now().Add(c.opts.HeartbeatTimeout)
	j.fleetGen = c.fleetGen
	c.parked = append(c.parked, j)
}

// cancel ends a job wherever it is: a queued job never touched the
// fleet; a claimed one frees its slot, and one provisioning or running
// drops its configuration, which releases the workers it occupied.
func (c *Coordinator) cancel(j *job, reason string) {
	done := failDone("cancelled: %s", reason)
	switch j.state {
	case jobQueued:
		i := slices.Index(c.queue, j)
		c.queue = slices.Delete(c.queue, i, i+1)
		c.metrics.jobsCancelled.Inc()
		c.deliver(j, done)
		return
	case jobWaiting:
		i := slices.Index(j.entry.waiting, j)
		j.entry.waiting = slices.Delete(j.entry.waiting, i, i+1)
	case jobParked:
		i := slices.Index(c.parked, j)
		c.parked = slices.Delete(c.parked, i, i+1)
	default: // provisioning, running, gathering
		c.stopCall(j)
		c.leave(j)
	}
	c.finish(j, done, runCancelled)
}

// finish frees j's slot and delivers its verdict.
func (c *Coordinator) finish(j *job, done wire.Message, verdict runVerdict) {
	c.claimed--
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

func failDone(format string, args ...any) wire.Message {
	return wire.Message{Type: wire.MsgDone, Err: fmt.Sprintf(format, args...)}
}

// dropConfig removes a configuration from its entry and releases it on
// its members, unless it is gone already: whoever takes a configuration
// out of its entry releases it, once.
func (c *Coordinator) dropConfig(e *configEntry, cfg *clusterConfig) {
	if e.cfg == cfg {
		e.cfg = nil
		c.releaseConfig(cfg)
	}
}

// evictCold enforces the MaxConfigs cap: while more shapes hold
// configurations than the cap allows, the least-recently-used idle
// entry is torn out of the map and its configuration released. keep —
// the entry that just provisioned — is never a victim. If every
// over-cap entry is busy, the fleet is genuinely that wide and the cap
// yields.
func (c *Coordinator) evictCold(keep *configEntry) {
	var victims []*clusterConfig
	for {
		live := 0
		var oldest *configEntry
		for _, e := range c.configs {
			if e.cfg == nil {
				continue
			}
			live++
			if e == keep || !e.idle() {
				continue
			}
			if oldest == nil || e.lastUsed.Before(oldest.lastUsed) {
				oldest = e
			}
		}
		if live <= c.opts.MaxConfigs || oldest == nil {
			break
		}
		victims = append(victims, oldest.cfg)
		oldest.cfg = nil
		delete(c.configs, oldest.key)
		c.metrics.configsEvicted.Inc()
	}
	for _, victim := range victims {
		c.releaseConfig(victim)
	}
}
