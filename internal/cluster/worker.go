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
	// Chaos, when set, injects scripted faults into this worker:
	// control-frame delays/drops/duplicates, connection resets at the
	// named protocol points (post-prepare, mid-run, pre-result),
	// heartbeat suppression, and mesh-write throttling. Nil injects
	// nothing.
	Chaos *chaos.Injector
	// Logf, when set, receives worker lifecycle logging.
	Logf func(format string, args ...any)
}

// meshSetupTimeout bounds mesh establishment on a configuration's first
// run. Every member's listener is bound before any run is written, so
// it covers only the spread between members' first runs arriving and
// the dials themselves.
const meshSetupTimeout = 60 * time.Second

func (o *WorkerOptions) fill() {
	if o.Advertise == "" {
		o.Advertise = "127.0.0.1"
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

	mu   sync.Mutex // guards mc and id, which Close and Drain read
	mc   *msgConn
	id   int64
	stop sync.Once
	done chan struct{}
	// wg covers Run and every goroutine it starts — the heartbeat, each
	// session's serve and the chaos fuses — so Close can wait for them.
	wg sync.WaitGroup

	// sessions belongs to the control read loop: only it adds, feeds
	// and drops sessions.
	sessions map[uint64]*workerSession
}

// workerSession is one configuration's handle in the read loop. Its
// state — app, plan, listener, mesh and engine — lives in its one
// goroutine (serve), from prepare to release.
type workerSession struct {
	id uint64
	// in carries runs to the session's goroutine. It holds one waiting
	// run: the coordinator sends a run only after every result of the
	// previous one is in, so one run executes and at most one (a
	// duplicated frame) waits.
	in chan wire.Message
	// cancel is closed, exactly once, by whoever drops the session from
	// Worker.sessions. It ends the goroutine and, as the mesh's
	// Topology.Cancel, tears down an establishment or a run in flight.
	cancel chan struct{}
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
	// Publish the connection, and join wg, under the lock so a
	// concurrent Close (signal handler, test cleanup) either sees the
	// connection, closes it and waits for Run, or has already closed
	// done — in which case the dial is abandoned here rather than
	// leaving Run blocked in a read Close cannot interrupt.
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
	w.wg.Add(1)
	w.mu.Unlock()
	defer w.wg.Done()
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

	w.wg.Add(1)
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
		// The read loop never blocks on a session: a first run blocks
		// on peer processes while it wires the mesh, and every run on
		// the mesh, so a release (peer died, coordinator tearing the
		// config down) must always get through to cancel a wedged
		// establishment or run.
		switch m.Type {
		case wire.MsgPrepare:
			if old := w.sessions[m.Config]; old != nil {
				// A re-prepare of a live config id means the coordinator
				// lost track; drop the stale session rather than leak its
				// mesh.
				w.drop(old, "re-prepared")
			}
			sess := &workerSession{id: m.Config, in: make(chan wire.Message, 1), cancel: make(chan struct{})}
			w.sessions[m.Config] = sess
			w.wg.Add(1)
			go w.serve(sess, m)
		case wire.MsgRun:
			sess := w.sessions[m.Config]
			if sess == nil {
				w.mc.write(refuse(m, "config %d not prepared", m.Config))
				continue
			}
			select {
			case sess.in <- m:
			default:
				w.mc.write(refuse(m, "config %d busy", m.Config))
			}
		case wire.MsgRelease:
			if sess := w.sessions[m.Config]; sess != nil {
				w.drop(sess, "released by coordinator")
			}
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
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
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

// Close stops the worker and returns once Run and every goroutine it
// started have exited: the control connection drops (the coordinator
// sees a dead worker) and every session aborts. A Close before Run, or
// after Run has returned, returns at once.
func (w *Worker) Close() {
	w.shutdown()
	w.wg.Wait()
}

// shutdown is Close without the wait, for Run's own teardown.
func (w *Worker) shutdown() {
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
	w.shutdown()
	for _, sess := range w.sessions {
		w.drop(sess, "worker shutting down")
	}
}

func (w *Worker) heartbeat(interval time.Duration) {
	defer w.wg.Done()
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

// drop takes a session out of the read loop's map and closes its
// cancel: the one place either happens, so both happen exactly once.
func (w *Worker) drop(sess *workerSession, why string) {
	delete(w.sessions, sess.id)
	close(sess.cancel)
	w.opts.Logf("cluster: config %d %s", sess.id, why)
}

// refuse is the failed reply to a run: a result carrying the run's job
// and attempt so the coordinator matches it.
func refuse(m wire.Message, format string, args ...any) wire.Message {
	return wire.Message{Type: wire.MsgResult, Config: m.Config, Job: m.Job, Attempt: m.Attempt, Err: "run refused: " + fmt.Sprintf(format, args...)}
}

// serve is a session's one goroutine, from prepare to release. It
// builds the configuration and replies prepared, then answers the runs
// the read loop queues on in, one at a time; the first one wires the
// mesh before it runs. A failed prepare or mesh leaves it refusing
// every later run until the release. The read loop does not wait for
// it to exit — it must not block on a release — but Close does; a
// closed cancel ends it as soon as a run in flight returns.
func (w *Worker) serve(sess *workerSession, prep wire.Message) {
	defer w.wg.Done()
	app, plan, ln, err := w.prepare(prep)
	var engine *exec.RankEngine
	defer func() {
		if engine != nil {
			engine.Close()
		} else if ln != nil {
			ln.Close()
		}
		// A message the read loop queued before the release still gets
		// its one reply.
		select {
		case m := <-sess.in:
			w.mc.write(refuse(m, "config %d released", sess.id))
		default:
		}
	}()
	select {
	case <-sess.cancel:
		// Released, or replaced by a re-prepare, while building: the
		// config is gone, so reply nothing. A replacement's prepared is
		// the one the coordinator must see.
		return
	default:
	}
	reply := wire.Message{Type: wire.MsgPrepared, Config: sess.id}
	if err != nil {
		reply.Err = err.Error()
	} else {
		reply.Addr = ln.Addr().String()
		w.opts.Logf("cluster: prepared config %d: ranks [%d,%d) of %d, data %s",
			sess.id, plan.Local.Lo, plan.Local.Hi, plan.Ranks, reply.Addr)
	}
	w.mc.write(reply)
	w.chaosPoint("post-prepare")
	for {
		// A release takes precedence over a message already queued: the
		// deferred drain refuses that one instead of running it.
		select {
		case <-sess.cancel:
			return
		default:
		}
		var m wire.Message
		select {
		case <-sess.cancel:
			return
		case m = <-sess.in:
		}
		if err == nil && engine == nil {
			engine, err = w.connect(plan, ln, sess.cancel, m)
		}
		if err != nil {
			reply = refuse(m, "config %d: %v", sess.id, err)
		} else {
			reply = w.run(app, plan, engine, m)
		}
		w.mc.write(reply)
	}
}

// prepare builds this worker's slice of a configuration: the app from
// the spec, the local rank plan, and the data listener whose address
// peers will dial.
func (w *Worker) prepare(m wire.Message) (*core.App, *exec.RankPlan, net.Listener, error) {
	if m.Spec == nil {
		return nil, nil, nil, fmt.Errorf("prepare without spec")
	}
	if m.Ranks < 1 || m.RankLo < 0 || m.RankHi > m.Ranks || m.RankLo >= m.RankHi {
		return nil, nil, nil, fmt.Errorf("bad rank span [%d,%d) of %d", m.RankLo, m.RankHi, m.Ranks)
	}
	app, err := m.Spec.ToApp()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec: %v", err)
	}
	app.Workers = m.Ranks
	plan := exec.BuildRankPlanLocal(app, m.Ranks, exec.Span{Lo: m.RankLo, Hi: m.RankHi})
	ln, err := net.Listen("tcp", net.JoinHostPort(w.opts.Advertise, "0"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("data listener: %v", err)
	}
	return app, plan, ln, nil
}

// connect wires this worker's slice of the mesh from the member
// addresses a configuration's first run carries: dial the hosting
// process of every rank above each local one, accept a link from every
// rank below, and stand up the engine over the resulting transport.
// The mesh takes ln, and tears itself down when cancel closes. A list
// that does not place the prepared span as one member's block is
// refused before anything is dialed.
func (w *Worker) connect(plan *exec.RankPlan, ln net.Listener, cancel <-chan struct{}, m wire.Message) (*exec.RankEngine, error) {
	members := len(m.Addrs)
	if members < 1 || members > plan.Ranks ||
		exec.BlockAssign(plan.Ranks, members)[exec.OwnerOf(plan.Local.Lo, plan.Ranks, members)] != plan.Local {
		return nil, fmt.Errorf("mesh: %d member addresses do not place ranks [%d,%d) of %d", members, plan.Local.Lo, plan.Local.Hi, plan.Ranks)
	}
	addrs := make([]string, plan.Ranks)
	for r := range addrs {
		addrs[r] = m.Addrs[exec.OwnerOf(r, plan.Ranks, members)]
	}
	tr, err := tcp.NewMeshTransport(plan, tcp.Topology{
		Local:    plan.Local,
		Addrs:    addrs,
		Config:   m.Config,
		Listener: ln,
		Timeout:  meshSetupTimeout,
		Cancel:   cancel,
		Wrap:     w.opts.Chaos.WrapConn(),
	})
	if err != nil {
		return nil, fmt.Errorf("mesh: %v", err)
	}
	w.opts.Logf("cluster: config %d mesh up (%d ranks)", m.Config, plan.Ranks)
	// The scheduling paradigm across processes is p2p's eager policy —
	// the only barrier-free rank policy, which is exactly what a
	// process-spanning engine requires.
	return exec.NewLocalRankEngine(plan, p2p.Policy{}, 1, tr), nil
}

// run executes one job on a wired session: swap in the job's
// kernel configurations, reset the plan, run the local ranks, and
// report the local wall time (the coordinator takes the fleet max).
// The attempt id is echoed in every result so the coordinator can
// match it to the live attempt and discard a stale run's late result;
// a stale attempt's run message itself names a released config and is
// refused by the read loop instead of executing.
func (w *Worker) run(app *core.App, plan *exec.RankPlan, engine *exec.RankEngine, m wire.Message) wire.Message {
	fail := func(format string, args ...any) wire.Message {
		return wire.Message{Type: wire.MsgResult, Config: m.Config, Job: m.Job, Attempt: m.Attempt, Err: fmt.Sprintf(format, args...)}
	}
	if len(m.Kernels) != len(app.Graphs) {
		return fail("%d kernel specs for %d graphs", len(m.Kernels), len(app.Graphs))
	}
	for gi, ks := range m.Kernels {
		k, err := ks.ToConfig()
		if err != nil {
			return fail("graph %d kernel: %v", gi, err)
		}
		app.Graphs[gi].Kernel = k
	}
	plan.Reset()
	w.chaosPoint("mid-run") // a fused reset lands while the run executes
	start := time.Now()
	err := engine.Run(app.Validate)
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
