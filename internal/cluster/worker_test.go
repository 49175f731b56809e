package cluster

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// TestWorkerSessionBurstThenRelease drives one worker from a fake
// coordinator on a raw listener: prepare, connect, a burst of four runs
// written back to back, then a second burst with a release written
// right behind it. A session runs one job at a time with one more
// waiting, so at most two runs of a burst execute and the rest are
// refused at once; every message still gets exactly one reply, the
// release gets through, the session's goroutines exit, and a later run
// for the config is refused at once.
func TestWorkerSessionBurstThenRelease(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w := NewWorker(WorkerOptions{Coordinator: ln.Addr().String(), Logf: t.Logf})
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run() }()
	defer func() { w.Close(); <-stopped }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	defer mc.close()
	if m, err := mc.read(); err != nil || m.Type != wire.MsgRegister {
		t.Fatalf("first frame = %+v, %v; want register", m, err)
	}
	// An hour between heartbeats keeps them out of the reply stream.
	if err := mc.write(wire.Message{Type: wire.MsgWelcome, Worker: 1, HeartbeatNanos: int64(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	replies := make(chan wire.Message, 16)
	go func() {
		defer close(replies)
		for {
			m, err := mc.read()
			if err != nil {
				return
			}
			replies <- m
		}
	}()
	next := func() wire.Message {
		t.Helper()
		select {
		case m, ok := <-replies:
			if !ok {
				t.Fatal("worker closed the control connection")
			}
			return m
		case <-time.After(10 * time.Second):
			t.Fatal("no reply within 10s")
		}
		return wire.Message{}
	}
	send := func(m wire.Message) {
		t.Helper()
		if err := mc.write(m); err != nil {
			t.Fatal(err)
		}
	}

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
	r := next()
	if r.Type != wire.MsgPrepared || r.Config != 1 || r.Err != "" || r.Addr == "" {
		t.Fatalf("prepare: reply %+v", r)
	}
	send(wire.Message{Type: wire.MsgConnect, Config: 1, Addrs: []string{r.Addr}})
	if r := next(); r.Type != wire.MsgReady || r.Config != 1 || r.Err != "" {
		t.Fatalf("connect: reply %+v", r)
	}

	// burst writes four runs back to back, then (if release) a release
	// right behind them, and checks their replies: one each, at most
	// two runs executed, and the rest refused before any run finished.
	burst := func(first uint64, release bool) {
		t.Helper()
		const n = 4
		for job := first; job < first+n; job++ {
			send(run(job))
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
