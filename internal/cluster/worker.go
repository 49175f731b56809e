package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
	"taskbench/internal/runtime/tcp"
	"taskbench/internal/wire"
)

// WorkerOptions configures a Worker process.
type WorkerOptions struct {
	// Coordinator is the control address to register with.
	Coordinator string
	// Name labels the worker in coordinator logs; defaults to an
	// assigned id.
	Name string
	// Advertise is the host data listeners bind to (and the address
	// peers dial); default "127.0.0.1". On a real multi-host cluster
	// this is the worker's routable address.
	Advertise string
	// SetupTimeout bounds mesh establishment; default 60s. It must
	// cover the slowest peer's plan build, or a large configuration's
	// connect phase fails spuriously.
	SetupTimeout time.Duration
	// Chaos, when set, injects scripted faults into this worker:
	// control-frame delays/drops/duplicates, connection resets at the
	// named protocol points (post-prepare, mid-run, pre-result),
	// heartbeat suppression, and mesh-write throttling. Nil injects
	// nothing.
	Chaos *chaos.Injector
	// Logf, when set, receives worker lifecycle logging.
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) fill() {
	if o.Advertise == "" {
		o.Advertise = "127.0.0.1"
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 60 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Worker hosts rank spans of cluster runs: it registers with a
// coordinator, prepares per-configuration sessions (local plan slice,
// data listener, mesh transport, rank engine), and executes jobs on
// them. One worker process serves many jobs; sessions persist between
// jobs of the same shape.
type Worker struct {
	opts WorkerOptions
	mc   *msgConn
	id   int64

	mu       sync.Mutex
	sessions map[uint64]*workerSession
	closed   bool
	stop     sync.Once
	done     chan struct{}
}

// workerSession is one prepared configuration's local state. The
// connect phase runs off the control read loop, so release can arrive
// concurrently: mu guards the lifecycle fields, and cancel (closed by
// release) interrupts an in-flight mesh establishment.
type workerSession struct {
	id    uint64
	app   *core.App
	plan  *exec.RankPlan
	span  exec.Span
	ranks int

	mu       sync.Mutex
	released bool
	cancel   chan struct{}
	ln       net.Listener // bound at prepare, owned by the transport after connect
	tr       *tcp.MeshTransport
	engine   *exec.RankEngine

	runMu sync.Mutex // serializes runs on this session
}

// NewWorker creates a worker; Run connects and serves until the
// coordinator goes away or Close is called.
func NewWorker(opts WorkerOptions) *Worker {
	opts.fill()
	return &Worker{
		opts:     opts,
		sessions: map[uint64]*workerSession{},
		done:     make(chan struct{}),
	}
}

// Run registers with the coordinator and serves control messages until
// the connection drops or Close is called. The returned error explains
// why the worker stopped (nil after a clean Close).
func (w *Worker) Run() error {
	conn, err := net.Dial("tcp", w.opts.Coordinator)
	if err != nil {
		return fmt.Errorf("cluster: dial coordinator %s: %w", w.opts.Coordinator, err)
	}
	// Publish the connection under the lock so a concurrent Close
	// (signal handler, test cleanup) either sees it and closes it, or
	// has already closed done — in which case the dial is abandoned
	// here rather than leaving Run blocked in a read Close cannot
	// interrupt.
	w.mu.Lock()
	select {
	case <-w.done:
		w.mu.Unlock()
		conn.Close()
		return nil
	default:
	}
	w.mc = newMsgConn(conn)
	w.mc.chaos = w.opts.Chaos
	w.mu.Unlock()
	defer w.teardown()

	if err := w.mc.write(wire.Message{Type: wire.MsgRegister, Name: w.opts.Name}); err != nil {
		return fmt.Errorf("cluster: register: %w", err)
	}
	welcome, err := w.mc.read()
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	if welcome.Type != wire.MsgWelcome {
		return fmt.Errorf("cluster: expected welcome, got %q", welcome.Type)
	}
	w.mu.Lock()
	w.id = welcome.Worker // under mu: Drain reads it concurrently
	w.mu.Unlock()
	interval := time.Duration(welcome.HeartbeatNanos)
	if interval <= 0 {
		interval = time.Second
	}
	w.opts.Logf("cluster: registered as worker %d, heartbeating every %v", w.id, interval)

	go w.heartbeat(interval)

	for {
		m, err := w.mc.read()
		if err != nil {
			select {
			case <-w.done:
				return nil // clean Close
			default:
				return fmt.Errorf("cluster: coordinator connection: %w", err)
			}
		}
		switch m.Type {
		case wire.MsgPrepare:
			// Prepare is purely local (plan build, listener bind) and
			// cannot wedge on peers, so it may hold the read loop.
			w.mc.write(w.handlePrepare(m))
			w.chaosPoint("post-prepare")
		case wire.MsgConnect:
			// Connects block on peer processes and runs block on the
			// mesh, so neither may occupy the read loop: a release
			// (peer died, coordinator tearing the config down) has to
			// be able to abort a wedged establishment or run.
			go func(m wire.Message) { w.mc.write(w.handleConnect(m)) }(m)
		case wire.MsgRun:
			go func(m wire.Message) { w.mc.write(w.handleRun(m)) }(m)
		case wire.MsgRelease:
			w.handleRelease(m.Config, fmt.Errorf("config %d released by coordinator", m.Config))
		case wire.MsgDrained:
			// The coordinator has unwound every configuration this worker
			// hosted and will place nothing more on it: the graceful
			// counterpart of a connection error, so Run returns nil.
			w.opts.Logf("cluster: worker %d drained; exiting", w.id)
			return nil
		default:
			w.opts.Logf("cluster: unexpected %q from coordinator", m.Type)
		}
	}
}

// Drain announces this worker's graceful departure to the coordinator:
// no new configurations are placed on it, running attempts finish (or
// are proactively re-provisioned), and once nothing references the
// worker the coordinator answers drained — at which point Run returns
// nil. The worker keeps serving its sessions in the meantime; Drain
// only starts the exchange.
func (w *Worker) Drain() error {
	w.mu.Lock()
	mc, id := w.mc, w.id
	w.mu.Unlock()
	if mc == nil {
		return fmt.Errorf("cluster: drain before registration")
	}
	if err := mc.write(wire.Message{Type: wire.MsgDrain, Worker: id, Name: w.opts.Name}); err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	return nil
}

// chaosPoint consults the fault script at a named protocol point; a
// scripted reset closes the control connection — immediately, or after
// the rule's fuse delay (concurrently, so a mid-run reset lands while
// the run is executing).
func (w *Worker) chaosPoint(name string) {
	act := w.opts.Chaos.Point(name)
	if !act.Reset {
		return
	}
	if act.Delay > 0 {
		go func() {
			timer := time.NewTimer(act.Delay)
			defer timer.Stop()
			select {
			case <-w.done:
			case <-timer.C:
				w.opts.Logf("cluster: chaos reset at %s (+%v)", name, act.Delay)
				w.mc.close()
			}
		}()
		return
	}
	w.opts.Logf("cluster: chaos reset at %s", name)
	w.mc.close()
}

// Close stops the worker: the control connection drops (the
// coordinator sees a dead worker) and every session aborts.
func (w *Worker) Close() {
	w.stop.Do(func() {
		close(w.done)
		w.mu.Lock()
		mc := w.mc
		w.mu.Unlock()
		if mc != nil {
			mc.close()
		}
	})
}

func (w *Worker) teardown() {
	w.Close()
	w.mu.Lock()
	sessions := make([]*workerSession, 0, len(w.sessions))
	for _, s := range w.sessions {
		sessions = append(sessions, s)
	}
	w.sessions = map[uint64]*workerSession{}
	w.closed = true
	w.mu.Unlock()
	for _, s := range sessions {
		s.release(fmt.Errorf("worker shutting down"))
	}
}

func (w *Worker) heartbeat(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-tick.C:
		}
		if w.opts.Chaos.Heartbeat() {
			continue // scripted dead-air: alive but silent
		}
		if w.mc.write(wire.Message{Type: wire.MsgHeartbeat, Worker: w.id}) != nil {
			return
		}
	}
}

// handlePrepare builds this worker's slice of a configuration: the app
// from the spec, the local rank plan, and the data listener whose
// address peers will dial.
func (w *Worker) handlePrepare(m wire.Message) wire.Message {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgPrepared, Config: m.Config, Err: fmt.Sprintf(format, args...)}
	}
	if m.Spec == nil {
		return fail("prepare without spec")
	}
	if m.Ranks < 1 || m.RankLo < 0 || m.RankHi > m.Ranks || m.RankLo >= m.RankHi {
		return fail("bad rank span [%d,%d) of %d", m.RankLo, m.RankHi, m.Ranks)
	}
	app, err := m.Spec.ToApp()
	if err != nil {
		return fail("spec: %v", err)
	}
	app.Workers = m.Ranks

	span := exec.Span{Lo: m.RankLo, Hi: m.RankHi}
	plan := exec.BuildRankPlanLocal(app, m.Ranks, span)
	ln, err := net.Listen("tcp", net.JoinHostPort(w.opts.Advertise, "0"))
	if err != nil {
		return fail("data listener: %v", err)
	}
	sess := &workerSession{
		id:     m.Config,
		app:    app,
		plan:   plan,
		span:   span,
		ranks:  m.Ranks,
		cancel: make(chan struct{}),
		ln:     ln,
	}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		ln.Close()
		return fail("worker shutting down")
	}
	if old := w.sessions[m.Config]; old != nil {
		// A re-prepare of a live config id means the coordinator lost
		// track; drop the stale session rather than leak its mesh.
		delete(w.sessions, m.Config)
		defer old.release(fmt.Errorf("config %d re-prepared", m.Config))
	}
	w.sessions[m.Config] = sess
	w.mu.Unlock()

	w.opts.Logf("cluster: prepared config %d: ranks [%d,%d) of %d, data %s",
		m.Config, span.Lo, span.Hi, m.Ranks, ln.Addr())
	return wire.Message{Type: wire.MsgPrepared, Config: m.Config, Addr: ln.Addr().String()}
}

// handleConnect wires this worker's slice of the mesh: dial every
// remote rank's hosting process, accept the expected inbound links,
// and stand up the engine over the resulting transport.
func (w *Worker) handleConnect(m wire.Message) wire.Message {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgReady, Config: m.Config, Err: fmt.Sprintf(format, args...)}
	}
	sess := w.session(m.Config)
	if sess == nil {
		return fail("connect for unknown config %d", m.Config)
	}
	tr, err := tcp.NewMeshTransport(sess.plan, tcp.Topology{
		Local:    sess.span,
		Addrs:    m.Addrs,
		Config:   m.Config,
		Listener: sess.ln,
		Timeout:  w.opts.SetupTimeout,
		Cancel:   sess.cancel,
		Wrap:     w.opts.Chaos.WrapConn(),
	})
	if err != nil {
		w.dropSession(m.Config)
		sess.ln.Close()
		return fail("mesh: %v", err)
	}
	sess.mu.Lock()
	if sess.released {
		sess.mu.Unlock()
		tr.Abort(fmt.Errorf("config %d released during connect", m.Config))
		return fail("config %d released during connect", m.Config)
	}
	sess.tr = tr
	// The scheduling paradigm across processes is p2p's eager policy —
	// the only barrier-free rank policy, which is exactly what a
	// process-spanning engine requires.
	sess.engine = exec.NewLocalRankEngine(sess.plan, p2p.Policy{}, 1, tr)
	sess.mu.Unlock()
	w.opts.Logf("cluster: config %d mesh up (%d ranks)", m.Config, sess.ranks)
	return wire.Message{Type: wire.MsgReady, Config: m.Config}
}

// handleRun executes one job on a prepared session: swap in the job's
// kernel configurations, reset the plan, run the local ranks, and
// report the local wall time (the coordinator takes the fleet max).
// The attempt id is echoed in every result so the coordinator can
// match it to the live attempt and discard a stale run's late result;
// a stale attempt's run message itself names a released config and
// fails the unprepared-config check below instead of executing.
func (w *Worker) handleRun(m wire.Message) wire.Message {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgResult, Config: m.Config, Job: m.Job, Attempt: m.Attempt, Err: fmt.Sprintf(format, args...)}
	}
	sess := w.session(m.Config)
	if sess == nil {
		return fail("run for unprepared config %d", m.Config)
	}
	sess.mu.Lock()
	engine := sess.engine
	sess.mu.Unlock()
	if engine == nil {
		return fail("run for unconnected config %d", m.Config)
	}
	sess.runMu.Lock()
	defer sess.runMu.Unlock()
	if len(m.Kernels) != len(sess.app.Graphs) {
		return fail("%d kernel specs for %d graphs", len(m.Kernels), len(sess.app.Graphs))
	}
	for gi, ks := range m.Kernels {
		k, err := ks.ToConfig()
		if err != nil {
			return fail("graph %d kernel: %v", gi, err)
		}
		sess.app.Graphs[gi].Kernel = k
	}
	sess.plan.Reset()
	w.chaosPoint("mid-run") // a fused reset lands while the run executes
	start := time.Now()
	err := engine.Run(sess.app.Validate)
	elapsed := time.Since(start)
	if err != nil {
		return fail("%v", err)
	}
	w.chaosPoint("pre-result")
	return wire.Message{
		Type:         wire.MsgResult,
		Config:       m.Config,
		Job:          m.Job,
		Attempt:      m.Attempt,
		ElapsedNanos: int64(elapsed),
	}
}

// handleRelease aborts and drops one session. Abort (not a plain
// close) is what unwedges a run blocked on a stalled peer the
// coordinator has declared dead.
func (w *Worker) handleRelease(config uint64, cause error) {
	if sess := w.dropSession(config); sess != nil {
		sess.release(cause)
		w.opts.Logf("cluster: released config %d (%v)", config, cause)
	}
}

func (w *Worker) session(config uint64) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[config]
}

func (w *Worker) dropSession(config uint64) *workerSession {
	w.mu.Lock()
	defer w.mu.Unlock()
	sess := w.sessions[config]
	delete(w.sessions, config)
	return sess
}

// release tears the session down exactly once: an in-flight mesh
// establishment is canceled, a live mesh is aborted (unwedging any
// blocked run), and a pre-connect listener is closed.
func (s *workerSession) release(cause error) {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	tr, ln, cancel := s.tr, s.ln, s.cancel
	s.mu.Unlock()
	if cancel != nil {
		close(cancel)
	}
	if tr != nil {
		tr.Abort(cause)
	} else if ln != nil {
		ln.Close()
	}
}
