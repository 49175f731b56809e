package cluster

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// testFleetOpts starts a coordinator (with mut applied to the test
// defaults) and n in-process workers (each its own control connection
// and data listeners — only the address space is shared) and waits
// until all have registered.
func testFleetOpts(t *testing.T, n int, mut func(*Options)) (*Coordinator, []*Worker) {
	t.Helper()
	opts := Options{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		SetupTimeout:      20 * time.Second,
		JobTimeout:        60 * time.Second,
		Logf:              t.Logf,
	}
	if mut != nil {
		mut(&opts)
	}
	coord, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	workers := make([]*Worker, n)
	for k := range workers {
		workers[k] = NewWorker(WorkerOptions{
			Coordinator: coord.Addr(),
			Name:        "w" + string(rune('A'+k)),
			Logf:        t.Logf,
		})
		go workers[k].Run()
		t.Cleanup(workers[k].Close)
	}
	if _, err := coord.WaitWorkers(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return coord, workers
}

func testFleet(t *testing.T, n int) (*Coordinator, []*Worker) {
	t.Helper()
	return testFleetOpts(t, n, nil)
}

func stencilSpec(ranks int, iterations int64) wire.AppSpec {
	return wire.AppSpec{
		Workers: ranks,
		Graphs: []wire.GraphSpec{{
			Steps: 20, Width: 6, Type: "stencil_1d_periodic",
			KernelSpec: wire.KernelSpec{Kernel: "compute_bound", Iterations: iterations},
			Output:     128,
		}},
	}
}

// busySpec is a deliberately slow job: steps timesteps of perTask
// busy-wait columns, sized so tests can observe (or interrupt) it
// mid-run.
func busySpec(ranks, width, steps int, perTask time.Duration) wire.AppSpec {
	return wire.AppSpec{
		Workers: ranks,
		Graphs: []wire.GraphSpec{{
			Steps: steps, Width: width, Type: "stencil_1d_periodic",
			KernelSpec: wire.KernelSpec{Kernel: "busy_wait", WaitNanos: int64(perTask)},
			Output:     64,
		}},
	}
}

// waitStats polls the coordinator until cond holds, failing the test
// at the deadline.
func waitStats(t *testing.T, coord *Coordinator, what string, timeout time.Duration, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond(coord.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterRunsValidatedJob(t *testing.T) {
	coord, _ := testFleet(t, 3)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stats, err := cli.Run(stencilSpec(6, 64))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 6 {
		t.Errorf("workers = %d, want 6", stats.Workers)
	}
	if stats.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want > 0", stats.Elapsed)
	}
	if stats.Tasks != 120 {
		t.Errorf("tasks = %d, want 120", stats.Tasks)
	}
}

// TestClusterReusesConfigAcrossJobs is the cross-request session-reuse
// story: jobs that differ only in kernel configuration share one
// prepared configuration (plans, rows, live mesh).
func TestClusterReusesConfigAcrossJobs(t *testing.T) {
	coord, _ := testFleet(t, 3)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for _, iters := range []int64{256, 64, 16, 4} {
		if _, err := cli.Run(stencilSpec(6, iters)); err != nil {
			t.Fatalf("iters=%d: %v", iters, err)
		}
	}
	// A different shape provisions a second configuration.
	other := stencilSpec(6, 64)
	other.Graphs[0].Type = "fft"
	other.Graphs[0].Width = 8
	if _, err := cli.Run(other); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.ConfigsBuilt != 2 {
		t.Errorf("configs built = %d, want 2", st.ConfigsBuilt)
	}
	if st.ConfigsReused != 3 {
		t.Errorf("configs reused = %d, want 3", st.ConfigsReused)
	}
	if st.JobsRun != 5 || st.JobsFailed != 0 {
		t.Errorf("jobs run/failed = %d/%d, want 5/0", st.JobsRun, st.JobsFailed)
	}
}

// TestClusterConcurrentClients submits from several client connections
// at once; the scheduler completes them all without loss.
func TestClusterConcurrentClients(t *testing.T) {
	coord, _ := testFleet(t, 2)
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cli, err := Dial(coord.Addr())
			if err != nil {
				errs[k] = err
				return
			}
			defer cli.Close()
			_, err = cli.Run(stencilSpec(4, int64(16*(k+1))))
			errs[k] = err
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", k, err)
		}
	}
	if st := coord.Stats(); st.JobsRun != clients {
		t.Errorf("jobs run = %d, want %d", st.JobsRun, clients)
	}
}

// TestClusterJobsOverlapAcrossShapes is the concurrent scheduler's
// core claim: two jobs of different shapes, pipelined down one client
// connection, execute on the 4-worker fleet at the same time instead
// of serializing behind a single run loop.
func TestClusterJobsOverlapAcrossShapes(t *testing.T) {
	coord, _ := testFleet(t, 4)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	shapeA := busySpec(4, 4, 800, time.Millisecond)
	shapeB := busySpec(4, 8, 800, time.Millisecond)
	shapeB.Graphs[0].Type = "fft"

	pa, err := cli.SubmitAsync(shapeA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cli.SubmitAsync(shapeB)
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs must be observed EXECUTING simultaneously.
	waitStats(t, coord, "2 jobs running concurrently", 15*time.Second, func(s Stats) bool {
		return s.JobsRunning >= 2
	})
	for name, p := range map[string]*Pending{"A": pa, "B": pb} {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("job %s: protocol error: %v", name, err)
		}
		if res.Err != nil {
			t.Errorf("job %s failed: %v", name, res.Err)
		}
	}
	if st := coord.Stats(); st.JobsRun != 2 || st.JobsFailed != 0 {
		t.Errorf("jobs run/failed = %d/%d, want 2/0", st.JobsRun, st.JobsFailed)
	}
}

// TestClusterPipelinedSubmissionsShareConfig pipelines several
// same-shape jobs down one connection before any completes: they
// serialize on the shape's run lock but reuse the one prepared
// configuration, never re-provisioning.
func TestClusterPipelinedSubmissionsShareConfig(t *testing.T) {
	coord, _ := testFleet(t, 2)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var pending []*Pending
	for _, iters := range []int64{64, 16, 4} {
		p, err := cli.SubmitAsync(stencilSpec(4, iters))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for k, p := range pending {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		if res.Err != nil {
			t.Errorf("job %d failed: %v", k, res.Err)
		}
	}
	st := coord.Stats()
	if st.ConfigsBuilt != 1 || st.ConfigsReused != 2 {
		t.Errorf("configs built/reused = %d/%d, want 1/2", st.ConfigsBuilt, st.ConfigsReused)
	}
}

// TestClusterWorkerDeathFailsJobCleanly kills a worker mid-run with
// retry disabled and requires (a) the in-flight job to fail with an
// error, not hang, and (b) the queue to keep serving jobs on the
// surviving fleet.
func TestClusterWorkerDeathFailsJobCleanly(t *testing.T) {
	coord, workers := testFleetOpts(t, 3, func(o *Options) { o.MaxAttempts = 1 })
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A deliberately long job: 6 ranks × 2000 steps of 1ms busy-wait
	// columns gives seconds of runtime to kill a worker in.
	long := busySpec(6, 6, 2000, time.Millisecond)
	p, err := cli.SubmitAsync(long)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	workers[1].Close() // the "crash": control conn drops, sessions abort

	type outcome struct {
		res JobResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := p.Wait()
		resCh <- outcome{res, err}
	}()
	select {
	case out := <-resCh:
		if out.err != nil {
			t.Fatalf("protocol error instead of job error: %v", out.err)
		}
		if out.res.Err == nil {
			t.Fatal("job succeeded despite killed worker and disabled retry")
		}
		t.Logf("job failed as expected: %v", out.res.Err)
	case <-time.After(30 * time.Second):
		t.Fatal("job hung after worker death")
	}

	// The queue must not be wedged: the next job provisions a fresh
	// configuration over the two survivors.
	deadline := time.Now().Add(5 * time.Second)
	for coord.WorkerCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet size = %d, want 2", coord.WorkerCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats, err := cli.Run(stencilSpec(4, 32))
	if err != nil {
		t.Fatalf("post-death job: %v", err)
	}
	if stats.Workers != 4 {
		t.Errorf("post-death workers = %d, want 4", stats.Workers)
	}
	if st := coord.Stats(); st.JobsFailed != 1 || st.JobsRetried != 0 {
		t.Errorf("jobs failed/retried = %d/%d, want 1/0", st.JobsFailed, st.JobsRetried)
	}
}

// TestClusterRetriesAfterWorkerDeath kills a worker mid-run with the
// default retry budget: the job must be re-provisioned over the
// reshaped two-worker fleet and COMPLETE, not fail.
func TestClusterRetriesAfterWorkerDeath(t *testing.T) {
	coord, workers := testFleet(t, 3)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	long := busySpec(6, 6, 1200, time.Millisecond)
	p, err := cli.SubmitAsync(long)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "job running", 10*time.Second, func(s Stats) bool { return s.JobsRunning >= 1 })
	time.Sleep(200 * time.Millisecond)
	workers[1].Close() // crash mid-run

	res, err := p.Wait()
	if err != nil {
		t.Fatalf("protocol error: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("job failed despite retry: %v", res.Err)
	}
	if res.Workers != 6 {
		t.Errorf("workers = %d, want 6 (same rank count on the reshaped fleet)", res.Workers)
	}
	st := coord.Stats()
	if st.JobsRetried < 1 {
		t.Errorf("jobs retried = %d, want >= 1", st.JobsRetried)
	}
	if st.JobsFailed != 0 || st.JobsRun != 1 {
		t.Errorf("jobs run/failed = %d/%d, want 1/0", st.JobsRun, st.JobsFailed)
	}
}

// TestReplyKeyMatchesRequestToReply pins the routing contract the
// retry path rests on: a request and its reply map to one key, and a
// result of another attempt (a stale run's late answer) to another.
func TestReplyKeyMatchesRequestToReply(t *testing.T) {
	for req, reply := range map[string]string{
		wire.MsgPrepare: wire.MsgPrepared, wire.MsgConnect: wire.MsgReady, wire.MsgRun: wire.MsgResult,
	} {
		m := wire.Message{Type: req, Config: 7, Job: 9, Attempt: 2}
		want := replyKeyOf(m)
		if m.Type = reply; replyKeyOf(m) != want {
			t.Errorf("%s waits on %+v, %s routes to %+v", req, want, reply, replyKeyOf(m))
		}
		if m.Attempt = 1; reply == wire.MsgResult && replyKeyOf(m) == want {
			t.Errorf("attempt 1's result would satisfy the wait for attempt 2")
		}
	}
}

// TestClusterQueueFullRejectsFast fills the one-deep queue behind a
// busy one-slot scheduler: the next submission must get an immediate
// rejected reply, not block until capacity frees up.
func TestClusterQueueFullRejectsFast(t *testing.T) {
	coord, _ := testFleetOpts(t, 1, func(o *Options) {
		o.QueueDepth = 1
		o.Concurrency = 1
	})
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	pa, err := cli.SubmitAsync(busySpec(1, 2, 1000, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the slot to claim job A so job B definitely queues.
	waitStats(t, coord, "job A in flight", 10*time.Second, func(s Stats) bool { return s.JobsInFlight >= 1 })
	pb, err := cli.SubmitAsync(stencilSpec(1, 8))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	pc, err := cli.SubmitAsync(stencilSpec(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pc.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("rejection took %v, want immediate", waited)
	}
	if !res.Rejected || res.Err == nil || !strings.Contains(res.Err.Error(), "queue full") {
		t.Fatalf("want fast queue-full rejection, got %+v", res)
	}
	if st := coord.Stats(); st.JobsRejected != 1 {
		t.Errorf("jobs rejected = %d, want 1", st.JobsRejected)
	}
	for name, p := range map[string]*Pending{"A": pa, "B": pb} {
		if res, err := p.Wait(); err != nil || res.Err != nil {
			t.Errorf("job %s: %v / %v", name, err, res.Err)
		}
	}
}

// TestClusterClientDisconnectCancelsQueuedJob is the regression test
// for the lost accepted ack: a job whose client vanished right after
// submitting must be cancelled, not run over the whole fleet for
// nobody. The scheduler slot is kept busy so the orphaned job is
// discovered in the queue.
func TestClusterClientDisconnectCancelsQueuedJob(t *testing.T) {
	coord, _ := testFleetOpts(t, 2, func(o *Options) { o.Concurrency = 1 })
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	pa, err := cli.SubmitAsync(busySpec(2, 2, 800, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "job A in flight", 10*time.Second, func(s Stats) bool { return s.JobsInFlight >= 1 })

	// A raw client: submit a job of a shape nobody else uses, then
	// vanish without reading a single reply.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	orphan := stencilSpec(2, 32)
	orphan.Graphs[0].Width = 10 // a shape unique to the orphaned job
	if err := wire.WriteMessageBinary(conn, wire.Message{Type: wire.MsgSubmit, Spec: &orphan}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if res, err := pa.Wait(); err != nil || res.Err != nil {
		t.Fatalf("job A: %v / %v", err, res.Err)
	}
	waitStats(t, coord, "orphaned job cancelled", 10*time.Second, func(s Stats) bool {
		return s.JobsCancelled == 1
	})
	st := coord.Stats()
	if st.JobsRun != 1 {
		t.Errorf("jobs run = %d, want 1 (the orphaned job must never run)", st.JobsRun)
	}
	if st.ConfigsBuilt != 1 {
		t.Errorf("configs built = %d, want 1 (no fleet provisioning for the orphaned shape)", st.ConfigsBuilt)
	}
}

// TestClusterCancelRunningJobReleasesFleet cancels a job mid-run: the
// client gets a cancelled result and the workers are freed (the next
// job of the same shape re-provisions and completes).
func TestClusterCancelRunningJobReleasesFleet(t *testing.T) {
	coord, _ := testFleet(t, 2)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	long := busySpec(4, 4, 5000, time.Millisecond)
	p, err := cli.SubmitAsync(long)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "job running", 10*time.Second, func(s Stats) bool { return s.JobsRunning >= 1 })
	p.Cancel()
	res, err := p.Wait()
	if err != nil {
		t.Fatalf("protocol error: %v", err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancel") {
		t.Fatalf("want cancelled result, got %+v", res)
	}
	if st := coord.Stats(); st.JobsCancelled != 1 {
		t.Errorf("jobs cancelled = %d, want 1", st.JobsCancelled)
	}
	// The fleet is free again: a quick same-shape job completes.
	quick := busySpec(4, 4, 5, time.Millisecond)
	if res, err := cli.Submit(quick); err != nil || res.Err != nil {
		t.Fatalf("post-cancel job: %v / %v", err, res.Err)
	}
}

// TestClusterConcurrentMixedShapes hammers the scheduler from several
// pipelining clients with a mix of shapes — the race-detector workout
// for slot/entry/cancellation bookkeeping.
func TestClusterConcurrentMixedShapes(t *testing.T) {
	coord, _ := testFleet(t, 4)
	shapes := []wire.AppSpec{
		stencilSpec(4, 32),
		stencilSpec(8, 16),
		{Workers: 4, Graphs: []wire.GraphSpec{{
			Steps: 10, Width: 8, Type: "fft",
			KernelSpec: wire.KernelSpec{Kernel: "compute_bound", Iterations: 32}, Output: 64,
		}}},
		{Workers: 2, Graphs: []wire.GraphSpec{{
			Steps: 12, Width: 4, Type: "dom",
			KernelSpec: wire.KernelSpec{Kernel: "compute_bound", Iterations: 32}, Output: 64,
		}}},
	}
	const clients = 4
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cli, err := Dial(coord.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			var pending []*Pending
			for i := 0; i < perClient; i++ {
				p, err := cli.SubmitAsync(shapes[(k+i)%len(shapes)])
				if err != nil {
					errs <- err
					return
				}
				pending = append(pending, p)
			}
			for _, p := range pending {
				res, err := p.Wait()
				if err != nil {
					errs <- err
				} else if res.Err != nil {
					errs <- res.Err
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := coord.Stats()
	if st.JobsRun != clients*perClient || st.JobsFailed != 0 {
		t.Errorf("jobs run/failed = %d/%d, want %d/0", st.JobsRun, st.JobsFailed, clients*perClient)
	}
}

// TestClusterRejectsBadSpec exercises coordinator-side validation: an
// invalid spec is rejected at admission, before touching the queue.
func TestClusterRejectsBadSpec(t *testing.T) {
	coord, _ := testFleet(t, 1)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Submit(wire.AppSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "spec") {
		t.Fatalf("bad spec accepted: %v", res.Err)
	}
	if !res.Rejected {
		t.Error("bad spec should be reported as rejected at admission")
	}
}

// TestClusterRejectsNonBinaryOpener pins the one framing from both
// ends: a peer whose first byte is not a binary frame's is torn down
// like any other malformed frame — no reply, one log line, and the
// fleet keeps serving binary clients.
func TestClusterRejectsNonBinaryOpener(t *testing.T) {
	var rejected atomic.Int32
	coord, _ := testFleetOpts(t, 2, func(o *Options) {
		o.Logf = func(format string, args ...any) {
			if strings.Contains(format, "bad opening frame") {
				rejected.Add(1)
			}
			t.Logf(format, args...)
		}
	})
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, `{"v":6,"type":"submit","spec":{"graphs":[{"steps":2,"width":2,"type":"trivial"}]}}`+"\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if reply, err := io.ReadAll(conn); len(reply) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("JSON opener: got reply %q, err %v; want the connection closed unanswered", reply, err)
	}
	if n := rejected.Load(); n != 1 {
		t.Errorf("coordinator logged %d bad-opener lines, want 1", n)
	}
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if res, err := cli.Submit(stencilSpec(2, 64)); err != nil || res.Err != nil {
		t.Fatalf("binary client after the rejected opener: %v / %v", err, res.Err)
	}

	// The worker side: a listener that answers the register with a JSON
	// line ends Run with the codec's error, not a hang or a misparse.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		io.WriteString(peer, `{"v":6,"type":"welcome","worker":1}`+"\n")
		io.Copy(io.Discard, peer) // hold the connection until the worker hangs up
	}()
	w := NewWorker(WorkerOptions{Coordinator: ln.Addr().String(), Logf: t.Logf})
	t.Cleanup(w.Close)
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run() }()
	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "wire:") {
			t.Fatalf("worker against a JSON listener: %v, want a wire: framing error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung on a JSON welcome")
	}
}

// TestCoordinatorCloseWithIdleClient must not hang on Close while a
// client connection is open but idle (its handler is blocked in a
// read; Close has to sweep client connections too).
func TestCoordinatorCloseWithIdleClient(t *testing.T) {
	coord, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Give the accept loop a moment to hand the connection to a
	// handler, which then blocks reading the first message.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		coord.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator Close hung on an idle client connection")
	}
}

// TestClusterNoWorkers fails jobs instead of waiting forever when the
// fleet is empty.
func TestClusterNoWorkers(t *testing.T) {
	coord, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Submit(stencilSpec(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "no workers") {
		t.Fatalf("want no-workers error, got %v", res.Err)
	}
}

// TestWaitWorkersDeadline pins the WaitWorkers contract: a zero
// timeout checks the fleet exactly once (no 10ms poll tick), a
// satisfied wait returns immediately, and a registration wakes a
// blocked waiter without polling.
func TestWaitWorkersDeadline(t *testing.T) {
	coord, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if got, err := coord.WaitWorkers(0, 0); got != 0 || err != nil {
		t.Errorf("WaitWorkers(0, 0) = %d, %v; want 0, nil", got, err)
	}
	start := time.Now()
	if _, err := coord.WaitWorkers(1, 0); err == nil {
		t.Error("WaitWorkers(1, 0) succeeded with an empty fleet")
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Errorf("WaitWorkers(1, 0) waited %v, want an immediate return", waited)
	}

	// A blocked waiter wakes on registration, well before its timeout.
	go func() {
		time.Sleep(150 * time.Millisecond)
		w := NewWorker(WorkerOptions{Coordinator: coord.Addr(), Name: "late"})
		t.Cleanup(w.Close)
		w.Run()
	}()
	start = time.Now()
	got, err := coord.WaitWorkers(1, 30*time.Second)
	if err != nil || got != 1 {
		t.Fatalf("WaitWorkers(1, 30s) = %d, %v", got, err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("waiter woke after %v, want promptly after registration", waited)
	}
}

// TestClientStats is the remote-observability contract: a client reads
// the coordinator's gauges and counters over its control connection —
// including on a stats-first connection that has never submitted — and
// the snapshot tracks the work the fleet actually did.
func TestClientStats(t *testing.T) {
	coord, _ := testFleetOpts(t, 2, func(o *Options) {
		o.QueueDepth = 16
		o.Concurrency = 3
		o.MaxAttempts = 2
	})

	// A stats-first connection: no submit has opened this conversation.
	mon, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	info, err := mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if info.Workers != 2 || info.QueueCap != 16 || info.Concurrency != 3 || info.MaxAttempts != 2 {
		t.Errorf("initial snapshot wrong: %+v", info)
	}
	if info.JobsRun != 0 || info.JobsRejected != 0 {
		t.Errorf("fresh coordinator has history: %+v", info)
	}

	// Work happens; the counters follow, visible from a second client.
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.Run(stencilSpec(2, 16)); err != nil {
			t.Fatal(err)
		}
	}
	info, err = mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if info.JobsRun != 3 || info.ConfigsBuilt != 1 || info.ConfigsReused != 2 {
		t.Errorf("post-run snapshot wrong: %+v", info)
	}
	if info.JobsFailed != 0 || info.JobsInFlight != 0 || info.JobsRunning != 0 || info.QueueLen != 0 {
		t.Errorf("idle fleet shows live work: %+v", info)
	}

	// Stats interleave with in-flight jobs on the SAME connection, and
	// observe them running.
	p, err := cli.SubmitAsync(busySpec(2, 4, 400, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err = cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if info.JobsRunning >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed the running job: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Cancel()
	if res, err := p.Wait(); err != nil {
		t.Fatalf("wait after cancel: %v (res %+v)", err, res)
	}

	// Concurrent stats queries race safely (matched by id, not order).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := mon.Stats(); err != nil {
				t.Errorf("concurrent stats: %v", err)
			}
		}()
	}
	wg.Wait()
}
