package cluster

import (
	"bufio"
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// These tests drive the coordinator's loop through its job states with
// scripted workers on raw control connections, so every reply, its
// order and its absence is the test's choice.

// rawCoordinator starts a coordinator for scripted workers, which do
// not heartbeat; tune adjusts its options.
func rawCoordinator(t *testing.T, tune ...func(*Options)) *Coordinator {
	t.Helper()
	opts := Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  time.Minute,
		SetupTimeout:      10 * time.Second,
		JobTimeout:        10 * time.Second,
		Logf:              t.Logf,
	}
	for _, f := range tune {
		f(&opts)
	}
	coord, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// rawWorker is a scripted worker: the frames the coordinator writes to
// it arrive on frames, and the test writes its replies with send.
type rawWorker struct {
	t      *testing.T
	conn   net.Conn
	frames chan wire.Message
}

// dialWorker registers a rawWorker and reads its welcome, so workers
// dialed in turn are members in that order (placement is by
// registration). The connection closes at cleanup.
func dialWorker(t *testing.T, coord *Coordinator, name string) *rawWorker {
	t.Helper()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteMessageBinary(conn, wire.Message{Type: wire.MsgRegister, Name: name}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if m, err := wire.ReadMessageFrom(br); err != nil || m.Type != wire.MsgWelcome {
		t.Fatalf("%s: first frame %+v, %v; want welcome", name, m, err)
	}
	rw := &rawWorker{t: t, conn: conn, frames: make(chan wire.Message, 64)}
	go func() {
		defer close(rw.frames)
		for {
			m, err := wire.ReadMessageFrom(br)
			if err != nil {
				return
			}
			rw.frames <- m
		}
	}()
	return rw
}

// next returns the worker's next frame, which must be of type typ.
func (rw *rawWorker) next(typ string) wire.Message {
	rw.t.Helper()
	select {
	case m, ok := <-rw.frames:
		if !ok {
			rw.t.Fatalf("connection closed waiting for %s", typ)
		}
		if m.Type != typ {
			rw.t.Fatalf("got %+v, want a %s", m, typ)
		}
		return m
	case <-time.After(10 * time.Second):
		rw.t.Fatalf("no %s within 10s", typ)
	}
	return wire.Message{}
}

// quiet fails the test if the worker is sent anything within 50ms.
func (rw *rawWorker) quiet() {
	rw.t.Helper()
	select {
	case m := <-rw.frames:
		rw.t.Errorf("unexpected frame %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func (rw *rawWorker) send(m wire.Message) {
	rw.t.Helper()
	if err := wire.WriteMessageBinary(rw.conn, m); err != nil {
		rw.t.Fatal(err)
	}
}

// answer replies to a prepare or a run as a worker that succeeded.
func (rw *rawWorker) answer(m wire.Message, addr string) {
	rw.t.Helper()
	reply := wire.Message{Type: wire.MsgResult, Config: m.Config, Job: m.Job, Attempt: m.Attempt, ElapsedNanos: 1}
	if m.Type == wire.MsgPrepare {
		reply = wire.Message{Type: wire.MsgPrepared, Config: m.Config, Addr: addr}
	}
	rw.send(reply)
}

func dialClient(t *testing.T, coord *Coordinator) *Client {
	t.Helper()
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

func rawSpec(ranks, width int) wire.AppSpec {
	return wire.AppSpec{Workers: ranks, Graphs: []wire.GraphSpec{{Steps: 4, Width: width, Type: "stencil_1d"}}}
}

func submit(t *testing.T, cli *Client, spec wire.AppSpec) *Pending {
	t.Helper()
	p, err := cli.SubmitAsync(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterProvisionsInOneCall pins provisioning to one fleet call.
// An 8-rank job's cold path sends each of two scripted workers a
// prepare for its block of ranks, then a run carrying exactly one data
// address per member, in member order; a second job of the same shape
// sends a run carrying none. Any other frame — a second provisioning
// call — fails the test.
func TestClusterProvisionsInOneCall(t *testing.T) {
	coord := rawCoordinator(t)
	addrs := []string{"raw-0:1", "raw-1:1"}
	members := []*rawWorker{dialWorker(t, coord, addrs[0]), dialWorker(t, coord, addrs[1])}
	cli := dialClient(t, coord)
	for job := range 2 {
		p := submit(t, cli, rawSpec(8, 8))
		want := addrs // the cold run wires the mesh; the warm one carries none
		for k, w := range members {
			if job > 0 {
				want = nil
				break
			}
			m := w.next(wire.MsgPrepare)
			if m.Ranks != 8 || m.RankLo != 4*k || m.RankHi != 4*k+4 {
				t.Errorf("worker %d: %+v, want a prepare of ranks [%d,%d) of 8", k, m, 4*k, 4*k+4)
			}
			w.answer(m, addrs[k])
		}
		for k, w := range members {
			r := w.next(wire.MsgRun)
			if !slices.Equal(r.Addrs, want) || want == nil && r.Addrs != nil {
				t.Errorf("job %d, worker %d: run carries addresses %q, want %q", job, k, r.Addrs, want)
			}
			w.answer(r, "")
		}
		if res, err := p.Wait(); err != nil || res.Err != nil {
			t.Fatalf("job %d: %v / %v", job, err, res.Err)
		}
	}
	for _, w := range members {
		w.quiet()
	}
}

// TestReplyKeyMatchesRequestToReply pins a fleet call as a reply count
// on its job, each reply matched to its request by config, job and
// attempt: one reply per member, a duplicate not taken for another
// member's, and the run sent once every member has answered, carrying
// their addresses in member order. A result of another attempt — a
// stale run's late answer — does not count for the live one.
func TestReplyKeyMatchesRequestToReply(t *testing.T) {
	coord := rawCoordinator(t)
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)

	p := submit(t, cli, rawSpec(2, 2))
	pa, pb := a.next(wire.MsgPrepare), b.next(wire.MsgPrepare)
	a.answer(pa, "a")
	a.answer(pa, "dup")
	b.quiet() // the duplicate did not stand in for b's reply
	b.answer(pb, "b")
	ra, rb := a.next(wire.MsgRun), b.next(wire.MsgRun)
	if !slices.Equal(ra.Addrs, []string{"a", "b"}) || !slices.Equal(rb.Addrs, ra.Addrs) {
		t.Fatalf("runs carry %q and %q, want [a b] for both", ra.Addrs, rb.Addrs)
	}
	for _, w := range []*rawWorker{a, b} {
		w.send(wire.Message{Type: wire.MsgResult, Config: ra.Config, Job: ra.Job, Attempt: ra.Attempt + 1, Err: "stale"})
	}
	a.send(wire.Message{Type: wire.MsgResult, Config: ra.Config, Job: ra.Job, Attempt: ra.Attempt, ElapsedNanos: 5})
	b.send(wire.Message{Type: wire.MsgResult, Config: rb.Config, Job: rb.Job, Attempt: rb.Attempt, ElapsedNanos: 7})
	if res, err := p.Wait(); err != nil || res.Err != nil || res.Elapsed != 7 {
		t.Fatalf("job = %+v, %v; want success taking the slower member's 7ns", res, err)
	}
}

// TestCallAllReturnsAtFirstFailure pins the end of a provisioning call
// to all members: an error reply ends it at once, with the other member
// silent, and leaves no call behind for that member's late reply to
// match.
func TestCallAllReturnsAtFirstFailure(t *testing.T) {
	coord := rawCoordinator(t)
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)

	p := submit(t, cli, rawSpec(2, 4))
	pa, pb := a.next(wire.MsgPrepare), b.next(wire.MsgPrepare)
	a.send(wire.Message{Type: wire.MsgPrepared, Config: pa.Config, Err: "plan failed"})
	res, err := p.Wait()
	if err != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "plan failed") || strings.Contains(res.Err.Error(), errWorkerLost.Error()) {
		t.Fatalf("job = %+v, %v; want the plan failure", res, err)
	}
	for _, w := range []*rawWorker{a, b} {
		if m := w.next(wire.MsgRelease); m.Config != pa.Config {
			t.Errorf("released config %d, want %d", m.Config, pa.Config)
		}
	}
	b.answer(pb, "late")
	b.quiet()
	calls := -1
	coord.do(func() { calls = len(coord.calls) })
	if calls != 0 {
		t.Errorf("%d calls left after the failed provisioning, want none", calls)
	}
	if st := coord.Stats(); st.JobsFailed != 1 || st.JobsRetried != 0 {
		t.Errorf("jobs failed/retried = %d/%d, want 1/0", st.JobsFailed, st.JobsRetried)
	}
}

// TestLostWorkerLeavesFleetBeforeRetry pins the invariant the retry
// path rests on: a member whose control connection fails mid-call has
// left the fleet before its call fails as worker lost, so the retry
// places over the survivors only.
func TestLostWorkerLeavesFleetBeforeRetry(t *testing.T) {
	coord := rawCoordinator(t)
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)

	p := submit(t, cli, rawSpec(1, 2))
	a.next(wire.MsgPrepare)
	a.conn.Close()
	m := b.next(wire.MsgPrepare)
	if n := coord.WorkerCount(); n != 1 {
		t.Errorf("%d workers when the retry placed, want 1", n)
	}
	b.answer(m, "b")
	b.answer(b.next(wire.MsgRun), "")
	if res, err := p.Wait(); err != nil || res.Err != nil {
		t.Fatalf("job = %+v, %v; want success on the retry", res, err)
	}
	if st := coord.Stats(); st.JobsRetried != 1 {
		t.Errorf("jobs retried = %d, want 1", st.JobsRetried)
	}
}

// TestFullWriteQueueHangsUp pins the loop's write rule: it never waits
// on a connection, and a peer whose writer has let its queue fill has
// stopped draining its socket, so it is hung up — its reader's error
// then takes it out of the fleet like any dead worker.
func TestFullWriteQueueHangsUp(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	p := &peer{mc: newMsgConn(local), out: make(chan wire.Message)} // no writer: always full
	c := &Coordinator{opts: Options{Logf: t.Logf}}
	c.send(p, wire.Message{Type: wire.MsgRelease, Config: 1})
	if !p.closed {
		t.Fatal("a full write queue left the peer open")
	}
	if _, err := remote.Read(make([]byte, 1)); err == nil {
		t.Error("the hung-up connection is still open")
	}
	if _, ok := <-p.out; ok {
		t.Error("the hung-up peer's queue is still open")
	}
}

// TestRunFailureGathersMembers pins a run's error path: an error reply
// releases the configuration at once, which aborts the other members'
// run, and the job gathers their replies before it fails. Once every
// member has answered, the first error is the verdict; a member lost
// meanwhile ends the run as worker lost instead, and the job retries —
// a member's run error can be the echo of another member's crash that
// its control connection has yet to report.
func TestRunFailureGathersMembers(t *testing.T) {
	coord := rawCoordinator(t)
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)
	spec := rawSpec(2, 2)
	fail := func(run wire.Message, w *rawWorker, why string) {
		w.send(wire.Message{Type: wire.MsgResult, Config: run.Config, Job: run.Job, Attempt: run.Attempt, Err: why})
	}
	provision := func() wire.Message {
		pa, pb := a.next(wire.MsgPrepare), b.next(wire.MsgPrepare)
		a.answer(pa, "a")
		b.answer(pb, "b")
		b.next(wire.MsgRun)
		return a.next(wire.MsgRun)
	}
	aborted := func(run wire.Message) {
		t.Helper()
		for _, w := range []*rawWorker{a, b} {
			if m := w.next(wire.MsgRelease); m.Config != run.Config {
				t.Errorf("released config %d, want %d", m.Config, run.Config)
			}
		}
	}

	p := submit(t, cli, spec)
	run := provision()
	fail(run, a, "validation failed")
	aborted(run)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if res, err := p.WaitContext(ctx); err == nil {
		t.Fatalf("job ended as %+v before b answered", res)
	}
	fail(run, b, "run refused: config released")
	if res, err := p.Wait(); err != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "validation failed") {
		t.Fatalf("job 1 = %+v, %v; want the first error", res, err)
	}

	p = submit(t, cli, spec)
	run = provision() // the failed configuration was dropped
	fail(run, a, "mesh: connection reset")
	aborted(run)
	b.conn.Close() // b's crash, reported after a's echo of it
	m := a.next(wire.MsgPrepare)
	if m.Ranks != 2 || m.RankLo != 0 || m.RankHi != 2 {
		t.Errorf("retry prepares %+v, want both ranks on a", m)
	}
	a.answer(m, "a")
	a.answer(a.next(wire.MsgRun), "")
	if res, err := p.Wait(); err != nil || res.Err != nil {
		t.Fatalf("job 2 = %+v, %v; want success on the retry", res, err)
	}
	if st := coord.Stats(); st.JobsFailed != 1 || st.JobsRetried != 1 {
		t.Errorf("jobs failed/retried = %d/%d, want 1/1", st.JobsFailed, st.JobsRetried)
	}
}

// TestDrainEndsGatheringCallOnce pins a run's error path against a
// drain it completes: the draining member's error is the run's last
// reply, and the release it triggers finishes that member's drain. The
// job ends once, with that error, and the same-shape job waiting
// behind it takes the shape and runs on the member left.
func TestDrainEndsGatheringCallOnce(t *testing.T) {
	coord := rawCoordinator(t)
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)
	spec := rawSpec(2, 2)

	p1 := submit(t, cli, spec)
	pa, pb := a.next(wire.MsgPrepare), b.next(wire.MsgPrepare)
	a.answer(pa, "a")
	b.answer(pb, "b")
	ra, rb := a.next(wire.MsgRun), b.next(wire.MsgRun)
	p2 := submit(t, cli, spec)
	b.send(wire.Message{Type: wire.MsgDrain})
	a.answer(ra, "")
	b.send(wire.Message{Type: wire.MsgResult, Config: rb.Config, Job: rb.Job, Attempt: rb.Attempt, Err: "validation failed"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if res, err := p1.WaitContext(ctx); err != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "validation failed") {
		t.Fatalf("job 1 = %+v, %v; want b's error", res, err)
	}
	if m := a.next(wire.MsgRelease); m.Config != ra.Config {
		t.Errorf("a released config %d, want %d", m.Config, ra.Config)
	}
	m := a.next(wire.MsgPrepare)
	if m.Ranks != 2 || m.RankLo != 0 || m.RankHi != 2 {
		t.Errorf("job 2 prepares %+v, want both ranks on a", m)
	}
	a.answer(m, "a")
	a.answer(a.next(wire.MsgRun), "")
	if res, err := p2.WaitContext(ctx); err != nil || res.Err != nil {
		t.Fatalf("job 2 = %+v, %v; want success on a", res, err)
	}
	a.quiet()
	st := coord.Stats()
	if st.JobsRun != 2 || st.JobsFailed != 1 || st.JobsRetried != 0 || st.JobsInFlight != 0 || st.JobsRunning != 0 || st.Workers != 1 {
		t.Errorf("stats %+v; want 2 jobs run, 1 failed, none retried or in flight, 1 worker", st)
	}
}

// TestReleaseBurstKeepsReader pins the write queue's size to the bursts
// one loop step makes: a member's death releases every configuration it
// shared, all in one step, and a survivor that is reading receives each
// release and stays in the fleet.
func TestReleaseBurstKeepsReader(t *testing.T) {
	const shapes = 200
	coord := rawCoordinator(t, func(o *Options) { o.MaxConfigs = shapes })
	a, b := dialWorker(t, coord, "a"), dialWorker(t, coord, "b")
	cli := dialClient(t, coord)
	for width := 1; width <= shapes; width++ {
		p := submit(t, cli, rawSpec(2, width))
		a.answer(a.next(wire.MsgPrepare), "a")
		b.answer(b.next(wire.MsgPrepare), "b")
		a.answer(a.next(wire.MsgRun), "")
		b.answer(b.next(wire.MsgRun), "")
		if res, err := p.Wait(); err != nil || res.Err != nil {
			t.Fatalf("job of width %d: %+v, %v", width, res, err)
		}
	}
	a.conn.Close()
	for range shapes {
		b.next(wire.MsgRelease)
	}
	if n := coord.WorkerCount(); n != 1 {
		t.Errorf("%d workers after the burst, want b alone", n)
	}
}
