package cluster

import (
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// fakeCoordinator runs a worker against a raw listener standing in for
// the coordinator and answers its register with a welcome. send writes
// a frame to the worker; next returns the worker's next reply, failing
// the test after 10 s; replies is the stream next reads.
func fakeCoordinator(t *testing.T) (send func(wire.Message), next func() wire.Message, replies <-chan wire.Message) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	w := NewWorker(WorkerOptions{Coordinator: ln.Addr().String(), Logf: t.Logf})
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run() }()
	t.Cleanup(func() { w.Close(); <-stopped })

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	t.Cleanup(mc.close)
	if m, err := mc.read(); err != nil || m.Type != wire.MsgRegister {
		t.Fatalf("first frame = %+v, %v; want register", m, err)
	}
	// An hour between heartbeats keeps them out of the reply stream.
	if err := mc.write(wire.Message{Type: wire.MsgWelcome, Worker: 1, HeartbeatNanos: int64(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	ch := make(chan wire.Message, 16)
	go func() {
		defer close(ch)
		for {
			m, err := mc.read()
			if err != nil {
				return
			}
			ch <- m
		}
	}()
	next = func() wire.Message {
		t.Helper()
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatal("worker closed the control connection")
			}
			return m
		case <-time.After(10 * time.Second):
			t.Fatal("no reply within 10s")
		}
		return wire.Message{}
	}
	send = func(m wire.Message) {
		t.Helper()
		if err := mc.write(m); err != nil {
			t.Fatal(err)
		}
	}
	return send, next, ch
}

// TestWorkerSessionBurstThenRelease drives one worker from a fake
// coordinator: prepare, a burst of four runs written back to back (the
// first carries the data address and wires the mesh), then a second
// burst with a release written right behind it. A session runs one job
// at a time with one more waiting, so at most two runs of a burst
// execute and the rest are refused at once; every message still gets
// exactly one reply, the release gets through, the session's goroutines
// exit, and a later run for the config is refused at once.
func TestWorkerSessionBurstThenRelease(t *testing.T) {
	send, next, replies := fakeCoordinator(t)

	// One task whose kernel spins long enough that the whole burst is
	// read while the first run executes.
	spec := wire.AppSpec{Workers: 1, Graphs: []wire.GraphSpec{{
		Steps: 1, Width: 1, Type: "trivial",
		KernelSpec: wire.KernelSpec{Kernel: "busy_wait", WaitNanos: int64(300 * time.Millisecond)},
	}}}
	run := func(job uint64) wire.Message {
		return wire.Message{Type: wire.MsgRun, Config: 1, Job: job, Attempt: 1, Kernels: wire.KernelsOf(spec)}
	}
	refused := func(r wire.Message, job uint64) bool {
		return r.Type == wire.MsgResult && r.Job == job && r.Attempt == 1 && strings.Contains(r.Err, "refused")
	}

	// A run for a config never prepared is refused at once. Its reply
	// also shows the worker's heartbeat goroutine is up before the
	// goroutines are counted.
	send(run(100))
	if r := next(); !refused(r, 100) {
		t.Fatalf("run before prepare: reply %+v, want a refused result", r)
	}
	before := runtime.NumGoroutine()

	send(wire.Message{Type: wire.MsgPrepare, Config: 1, Spec: &spec, Ranks: 1, RankLo: 0, RankHi: 1})
	prepared := next()
	if prepared.Type != wire.MsgPrepared || prepared.Config != 1 || prepared.Err != "" || prepared.Addr == "" {
		t.Fatalf("prepare: reply %+v", prepared)
	}

	// burst writes four runs back to back, then (if release) a release
	// right behind them, and checks their replies: one each, at most
	// two runs executed, and the rest refused before any run finished.
	burst := func(first uint64, release bool) {
		t.Helper()
		const n = 4
		for job := first; job < first+n; job++ {
			m := run(job)
			if job == 1 {
				m.Addrs = []string{prepared.Addr} // the config's first run wires its mesh
			}
			send(m)
		}
		if release {
			send(wire.Message{Type: wire.MsgRelease, Config: 1})
		}
		seen := map[uint64]bool{}
		executed, early := 0, 0
		for range n {
			r := next()
			if r.Type != wire.MsgResult || r.Job < first || r.Job >= first+n || seen[r.Job] {
				t.Fatalf("burst: unexpected reply %+v (replied so far: %v)", r, seen)
			}
			seen[r.Job] = true
			switch {
			case !refused(r, r.Job):
				executed++
			case executed == 0:
				early++
			}
		}
		if executed > 2 {
			t.Errorf("%d of %d runs executed, want at most 2", executed, n)
		}
		if early < n-2 {
			t.Errorf("%d runs refused before the first run finished, want at least %d", early, n-2)
		}
	}
	burst(1, false)
	burst(5, true)

	// The release behind the burst ends the session: its goroutine and
	// its mesh's are gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after the release, want %d as before prepare", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	send(run(9))
	if r := next(); !refused(r, 9) {
		t.Fatalf("run after release: reply %+v, want a refused result", r)
	}
	select {
	case r := <-replies:
		t.Errorf("extra reply %+v", r)
	default:
	}
}

// TestWorkerRefusesMismatchedAddrs: a configuration's first run must
// carry between one and ranks member addresses, and the prepared span
// must be the block of member OwnerOf(RankLo) under that count. A list
// that fails either is refused within 10 s with nothing dialed, and the
// release behind it still gets through.
func TestWorkerRefusesMismatchedAddrs(t *testing.T) {
	send, next, _ := fakeCoordinator(t)
	trap, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer trap.Close()
	addr := trap.Addr().String()
	spec := wire.AppSpec{Workers: 3, Graphs: []wire.GraphSpec{{Steps: 2, Width: 3, Type: "stencil_1d"}}}
	run := func(config uint64, addrs []string) wire.Message {
		return wire.Message{Type: wire.MsgRun, Config: config, Job: config, Kernels: wire.KernelsOf(spec), Addrs: addrs}
	}
	refused := func(r wire.Message, config uint64, why string) bool {
		return r.Type == wire.MsgResult && r.Job == config && strings.Contains(r.Err, "refused") && strings.Contains(r.Err, why)
	}
	// The worker prepares rank 0 of 3: block 0 under three members, but
	// not under one (ranks [0,3)) or two ([0,2)).
	for i, addrs := range [][]string{nil, {addr}, {addr, addr}, {addr, addr, addr, addr}} {
		config := uint64(i + 1)
		send(wire.Message{Type: wire.MsgPrepare, Config: config, Spec: &spec, Ranks: 3, RankLo: 0, RankHi: 1})
		if r := next(); r.Type != wire.MsgPrepared || r.Config != config || r.Err != "" {
			t.Fatalf("%d addresses: prepare reply %+v", len(addrs), r)
		}
		send(run(config, addrs))
		if r := next(); !refused(r, config, "member addresses") {
			t.Errorf("%d addresses: first run reply %+v, want a refused result", len(addrs), r)
		}
		send(wire.Message{Type: wire.MsgRelease, Config: config})
		send(run(config, nil))
		if r := next(); !refused(r, config, "not prepared") {
			t.Errorf("%d addresses: run after release: reply %+v, want refused as not prepared", len(addrs), r)
		}
	}
	trap.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
	if conn, err := trap.Accept(); err == nil {
		conn.Close()
		t.Error("a refused address list was dialed")
	}
}

// TestWorkerCloseMeansStopped: Close returns only once Run and every
// goroutine it started have exited, so nothing the worker runs logs
// after it — here, the teardown's drop of a session a job left behind.
// A Close before Run, and one after a failed dial, return at once.
func TestWorkerCloseMeansStopped(t *testing.T) {
	coord, _ := testFleet(t, 1)
	var closed atomic.Bool
	w := NewWorker(WorkerOptions{Coordinator: coord.Addr(), Name: "closing", Logf: func(format string, args ...any) {
		if closed.Load() {
			t.Errorf("logged after Close returned: "+format, args...)
		}
	}})
	go w.Run()
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cli := dialClient(t, coord)
	if _, err := cli.Run(stencilSpec(2, 8)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	closed.Store(true)
	time.Sleep(100 * time.Millisecond)

	unstarted := NewWorker(WorkerOptions{Coordinator: coord.Addr()})
	unstarted.Close()
	if err := unstarted.Run(); err != nil {
		t.Errorf("Run after Close = %v, want nil", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // nothing listens here now
	undialed := NewWorker(WorkerOptions{Coordinator: ln.Addr().String()})
	if err := undialed.Run(); err == nil {
		t.Error("Run against a closed port succeeded")
	}
	undialed.Close()
}
