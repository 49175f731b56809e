package tcp

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/leaktest"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
	"taskbench/internal/runtime/runtimetest"
)

func TestRankPolicyConformance(t *testing.T) {
	runtimetest.RankPolicyConformance(t, "tcp")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "tcp", 3)
}

func TestLargePayloadOverWire(t *testing.T) {
	rt, err := runtime.New("tcp")
	if err != nil {
		t.Fatal(err)
	}
	// Payloads far beyond a TCP segment exercise framing and partial
	// reads.
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 4, MaxWidth: 4, Dependence: core.Stencil1DPeriodic,
		OutputBytes: 1 << 18,
	}))
	app.Workers = 4
	stats, err := rt.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 16 {
		t.Errorf("tasks = %d, want 16", stats.Tasks)
	}
}

func TestAllToAllOverWire(t *testing.T) {
	rt, _ := runtime.New("tcp")
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 3, MaxWidth: 8, Dependence: core.AllToAll,
	}))
	app.Workers = 4
	if _, err := rt.Run(app); err != nil {
		t.Fatal(err)
	}
}

// splitMesh stands up a mesh the way cluster worker processes would,
// one process per rank span: separate local plans, separate listeners,
// transports constructed concurrently from a shared rank→address table.
// The spans cover the ranks in order. cancel is the first process's
// Topology.Cancel (nil for none).
func splitMesh(t *testing.T, mkApp func() *core.App, cancel <-chan struct{}, spans ...exec.Span) (apps []*core.App, plans []*exec.RankPlan, trs []*MeshTransport) {
	t.Helper()
	ranks := spans[len(spans)-1].Hi
	lns := make([]net.Listener, len(spans))
	addrs := make([]string, ranks)
	for k, span := range spans {
		apps = append(apps, mkApp())
		plans = append(plans, exec.BuildRankPlanLocal(apps[k], ranks, span))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[k] = ln
		for r := span.Lo; r < span.Hi; r++ {
			addrs[r] = ln.Addr().String()
		}
	}
	var wg sync.WaitGroup
	trs = make([]*MeshTransport, len(spans))
	errs := make([]error, len(spans))
	for k := range spans {
		wg.Add(1)
		topo := Topology{
			Local:    spans[k],
			Addrs:    addrs,
			Config:   42,
			Listener: lns[k],
			Timeout:  10 * time.Second,
		}
		if k == 0 {
			topo.Cancel = cancel
		}
		go func(k int) {
			defer wg.Done()
			trs[k], errs[k] = NewMeshTransport(plans[k], topo)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("process %d mesh: %v", k, err)
		}
	}
	return apps, plans, trs
}

// runSplit runs a split mesh's processes, each through its own engine,
// concurrently, runs times with validation as the apps say, and closes
// the engines.
func runSplit(t *testing.T, apps []*core.App, plans []*exec.RankPlan, trs []*MeshTransport, runs int) {
	t.Helper()
	engines := make([]*exec.RankEngine, len(trs))
	for k := range trs {
		engines[k] = exec.NewLocalRankEngine(plans[k], p2p.Policy{}, 1, trs[k])
		defer engines[k].Close()
	}
	for run := 0; run < runs; run++ {
		var wg sync.WaitGroup
		errs := make([]error, len(engines))
		for k := range engines {
			plans[k].Reset()
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = engines[k].Run(apps[k].Validate)
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("run %d process %d: %v", run, k, err)
			}
		}
	}
}

// TestMeshAcrossLocalSpans validates the multi-process construction:
// each half hosts two ranks through its own engine, and every payload
// crossing the span boundary is validated at the consumer.
func TestMeshAcrossLocalSpans(t *testing.T) {
	const ranks = 4
	mkApp := func() *core.App {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 30, MaxWidth: ranks, Dependence: core.Stencil1DPeriodic,
			OutputBytes: 256,
		}))
		app.Workers = ranks
		return app
	}
	apps, plans, trs := splitMesh(t, mkApp, nil, exec.Span{Lo: 0, Hi: 2}, exec.Span{Lo: 2, Hi: 4})
	runSplit(t, apps, plans, trs, 3)
}

// TestMeshOneConnectionPerPair pins the mesh's topology: a rank pair
// shares one connection, dialed by the lower rank's process and
// accepted by the higher one's, so R ranks open R(R−1)/2 connections,
// and each end is written — through Topology.Wrap — by its own rank.
func TestMeshOneConnectionPerPair(t *testing.T) {
	t.Run("in_process", func(t *testing.T) {
		const ranks = 4
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 2, MaxWidth: ranks, Dependence: core.AllToAll,
		}))
		app.Workers = ranks
		plan := exec.BuildRankPlan(app, ranks)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		accepts := &countingListener{TCPListener: ln.(*net.TCPListener), read: map[string]*atomic.Int64{}}
		addrs := make([]string, ranks)
		for r := range addrs {
			addrs[r] = ln.Addr().String()
		}
		var wrapped atomic.Int32
		tr, err := NewMeshTransport(plan, Topology{
			Local: exec.Span{Lo: 0, Hi: ranks}, Addrs: addrs, Listener: accepts,
			Wrap: func(c net.Conn) net.Conn { wrapped.Add(1); return c },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if got, want := accepts.accepted(), ranks*(ranks-1)/2; got != want {
			t.Errorf("mesh accepted %d links, want %d", got, want)
		}
		if got, want := wrapped.Load(), int32(ranks*(ranks-1)); got != want {
			t.Errorf("Wrap saw %d written ends, want %d", got, want)
		}
		// out[a][b] and out[b][a] are the two ends of one connection.
		for a := 0; a < ranks; a++ {
			for b := a + 1; b < ranks; b++ {
				if tr.out[a][b].LocalAddr().String() != tr.out[b][a].RemoteAddr().String() {
					t.Errorf("ranks %d and %d write different connections: %v→%v and %v→%v", a, b,
						tr.out[a][b].LocalAddr(), tr.out[a][b].RemoteAddr(), tr.out[b][a].LocalAddr(), tr.out[b][a].RemoteAddr())
				}
			}
		}
	})
	// Three processes: the middle one hosts a same-process pair, and
	// each lower span dials every higher one.
	t.Run("three_processes", func(t *testing.T) {
		const ranks = 4
		mkApp := func() *core.App {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 20, MaxWidth: 2 * ranks, Dependence: core.Spread, Radix: 3,
				OutputBytes: 64,
			}))
			app.Workers = ranks
			return app
		}
		apps, plans, trs := splitMesh(t, mkApp, nil, exec.Span{Lo: 0, Hi: 1}, exec.Span{Lo: 1, Hi: 3}, exec.Span{Lo: 3, Hi: 4})
		runSplit(t, apps, plans, trs, 3)
	})
}

// TestMeshAbortUnblocksRecv kills one half of a split mesh mid-run and
// requires the surviving half to finish with an error — never hang.
func TestMeshAbortUnblocksRecv(t *testing.T) {
	const ranks = 4
	mkApp := func() *core.App {
		app := core.NewApp(core.MustNew(core.Params{
			// Tall graph so the survivor is mid-protocol when the peer
			// dies.
			Timesteps: 10000, MaxWidth: ranks, Dependence: core.Stencil1DPeriodic,
			OutputBytes: 256,
		}))
		app.Workers = ranks
		return app
	}
	apps, plans, trs := splitMesh(t, mkApp, nil, exec.Span{Lo: 0, Hi: 2}, exec.Span{Lo: 2, Hi: 4})
	engine0 := exec.NewLocalRankEngine(plans[0], p2p.Policy{}, 1, trs[0])
	defer engine0.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- engine0.Run(apps[0].Validate) }()
	// The peer "process" dies without ever running its ranks.
	time.Sleep(20 * time.Millisecond)
	trs[1].Close()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("survivor run succeeded despite dead peer")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("survivor run hung after peer death")
	}
}

// TestMeshCancelAbortsRun closes an established mesh's Topology.Cancel
// mid-run while its peer stalls with every socket open, so no
// connection error will ever come: the cancel alone must end the run
// with an error. This is how a released cluster session unwedges.
func TestMeshCancelAbortsRun(t *testing.T) {
	const ranks = 4
	mkApp := func() *core.App {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 10000, MaxWidth: ranks, Dependence: core.Stencil1DPeriodic,
			OutputBytes: 256,
		}))
		app.Workers = ranks
		return app
	}
	cancel := make(chan struct{})
	apps, plans, trs := splitMesh(t, mkApp, cancel, exec.Span{Lo: 0, Hi: 2}, exec.Span{Lo: 2, Hi: 4})
	defer trs[1].Close()
	engine0 := exec.NewLocalRankEngine(plans[0], p2p.Policy{}, 1, trs[0])
	defer engine0.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- engine0.Run(apps[0].Validate) }()
	// The peer "process" never runs its ranks but keeps its sockets
	// open: the survivor is blocked on it.
	time.Sleep(20 * time.Millisecond)
	close(cancel)

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("run succeeded despite a canceled mesh")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still blocked 10s after its mesh was canceled")
	}
}

// TestMeshCloseMeansStopped checks right after a mesh's Close returns,
// without waiting, that no goroutine of the mesh is left: Close returns
// only once its demultiplexers and its Cancel watcher have exited. Each
// connection end closes a few milliseconds late, so a demultiplexer
// outlives any Close that does not wait for it, at any GOMAXPROCS. The
// package's leak check waits a few seconds first, so it catches
// goroutines that never end, not a Close that returns before they do.
func TestMeshCloseMeansStopped(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 8, MaxWidth: 4, Dependence: core.Stencil1DPeriodic, OutputBytes: 64,
	}))
	app.Workers = 4
	plan := exec.BuildRankPlan(app, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, plan.Ranks)
	for r := range addrs {
		addrs[r] = ln.Addr().String()
	}
	var closers sync.WaitGroup
	defer closers.Wait()
	tr, err := NewMeshTransport(plan, Topology{
		Local: exec.Span{Lo: 0, Hi: plan.Ranks}, Addrs: addrs, Listener: ln,
		Cancel: make(chan struct{}),
		Wrap:   func(c net.Conn) net.Conn { return lateCloseConn{c, &closers} },
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := exec.NewLocalRankEngine(plan, p2p.Policy{}, 1, tr)
	if err := engine.Run(true); err != nil {
		t.Fatal(err)
	}
	engine.Close()
	for _, match := range []string{"tcp.(*MeshTransport)", "tcp.NewMeshTransport"} {
		if left := leaktest.Running(match); len(left) != 0 {
			t.Fatalf("%d goroutines still running after Close:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// lateCloseConn closes its connection 20 ms after Close is called.
type lateCloseConn struct {
	net.Conn
	closers *sync.WaitGroup
}

func (c lateCloseConn) Close() error {
	c.closers.Add(1)
	go func() {
		defer c.closers.Done()
		time.Sleep(20 * time.Millisecond)
		c.Conn.Close()
	}()
	return nil
}

// TestMeshCancelStopsComputeOnlyRun: a canceled mesh fails its rank's
// next flush, so a run with no remote input to wake — one rank, ten
// seconds of busy-wait kernels — still ends within a step instead of
// computing on for nobody.
func TestMeshCancelStopsComputeOnlyRun(t *testing.T) {
	mkApp := func() *core.App {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 10000, MaxWidth: 1, Dependence: core.Stencil1DPeriodic,
			Kernel: kernels.Config{Type: kernels.BusyWait, WaitDuration: time.Millisecond},
		}))
		app.Workers = 1
		return app
	}
	cancel := make(chan struct{})
	apps, plans, trs := splitMesh(t, mkApp, cancel, exec.Span{Lo: 0, Hi: 1})
	engine := exec.NewLocalRankEngine(plans[0], p2p.Policy{}, 1, trs[0])
	defer engine.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- engine.Run(apps[0].Validate) }()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("run succeeded despite a canceled mesh")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still computing 5s after its mesh was canceled")
	}
}

// TestMeshRejectsWrongConfig ensures handshakes from a different
// session cannot cross-wire into a mesh: the imposter connection is
// closed and ignored, and the missing genuine link times
// establishment out instead of admitting the stranger.
func TestMeshRejectsWrongConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The mesh hosts rank 1, which dials no one and accepts rank 0's
	// link. Rank 0's process never comes, so the only inbound link is
	// the imposter's.
	addrs := []string{"", ln.Addr().String()}

	done := make(chan error, 1)
	go func() {
		_, err := NewMeshTransport(halfPlan(1), Topology{
			Local: exec.Span{Lo: 1, Hi: 2}, Addrs: addrs, Config: 7,
			Listener: ln, Timeout: 2 * time.Second,
		})
		done <- err
	}()
	// An imposter dialing with the wrong config id must be dropped:
	// its connection closes (EOF below) while establishment keeps
	// waiting for the genuine link, which never comes.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHandshake(conn, 99, 0, 1); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("imposter connection was admitted into the mesh")
	}
	if err := <-done; err == nil {
		t.Fatal("mesh established without its genuine inbound link")
	}
}
