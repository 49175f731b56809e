package cluster

import (
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// TestClusterWorkerHelper is not a test: it is the worker process body
// of the multi-process end-to-end test, entered when the test binary
// re-invokes itself with TASKBENCH_CLUSTER_COORD set. It serves until
// the coordinator (the parent test process) goes away. With
// TASKBENCH_CLUSTER_DRAIN set, SIGTERM triggers a graceful drain
// instead — the taskbenchd -drain-on path — and Run must then return
// nil so the process exits cleanly.
func TestClusterWorkerHelper(t *testing.T) {
	coord := os.Getenv("TASKBENCH_CLUSTER_COORD")
	if coord == "" {
		t.Skip("helper process entry point; set TASKBENCH_CLUSTER_COORD to use")
	}
	w := NewWorker(WorkerOptions{
		Coordinator: coord,
		Name:        os.Getenv("TASKBENCH_CLUSTER_NAME"),
	})
	defer w.Close()
	if os.Getenv("TASKBENCH_CLUSTER_DRAIN") != "" {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGTERM)
		defer signal.Stop(ch)
		ran := make(chan struct{})
		defer close(ran)
		go func() {
			select {
			case <-ch:
			case <-ran:
				return
			}
			if err := w.Drain(); err != nil {
				t.Errorf("drain: %v", err)
				w.shutdown()
			}
		}()
		// A drained worker must exit its serve loop cleanly; the parent
		// asserts this process's exit status is zero.
		if err := w.Run(); err != nil {
			t.Fatalf("worker run after drain: %v", err)
		}
		return
	}
	// The helper's exit status is irrelevant — the parent kills it or
	// closes the coordinator; either ends Run.
	_ = w.Run()
}

// spawnWorkerProcess re-invokes the test binary as a worker process.
func spawnWorkerProcess(t *testing.T, coordAddr, name string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterWorkerHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"TASKBENCH_CLUSTER_COORD="+coordAddr,
		"TASKBENCH_CLUSTER_NAME="+name,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn worker %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	return cmd
}

// TestClusterEndToEndMultiProcess is the acceptance test of cluster
// mode: one coordinator (this process) and three worker processes
// (os/exec re-invocations of the test binary), ranks spanning the
// processes via the tcp mesh. It asserts (a) a stencil run validates
// across process boundaries, (b) configurations are reused between
// jobs, (c) two jobs of different shapes pipelined down one connection
// execute on the fleet concurrently, and (d) SIGKILLing a worker
// process mid-run is survived: the job is retried over the reshaped
// fleet and completes, after which the queue keeps serving.
func TestClusterEndToEndMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	coord, err := Start(Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SetupTimeout:      30 * time.Second,
		JobTimeout:        60 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	procs := make([]*exec.Cmd, 3)
	for k, name := range []string{"proc-a", "proc-b", "proc-c"} {
		procs[k] = spawnWorkerProcess(t, coord.Addr(), name)
	}
	if _, err := coord.WaitWorkers(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// (a) A validated stencil run with ranks spanning three processes.
	// Validation happens at every consumer, so success proves every
	// cross-process payload arrived intact at the right task.
	stats, err := cli.Run(stencilSpec(6, 128))
	if err != nil {
		t.Fatalf("multi-process stencil run: %v", err)
	}
	if stats.Workers != 6 {
		t.Errorf("workers = %d, want 6", stats.Workers)
	}
	if stats.Tasks != 120 {
		t.Errorf("tasks = %d, want 120", stats.Tasks)
	}

	// (b) Same shape, different kernel: the prepared mesh is reused.
	if _, err := cli.Run(stencilSpec(6, 32)); err != nil {
		t.Fatalf("reused-config run: %v", err)
	}
	if st := coord.Stats(); st.ConfigsBuilt != 1 || st.ConfigCacheHits != 1 {
		t.Errorf("configs built/reused = %d/%d, want 1/1", st.ConfigsBuilt, st.ConfigCacheHits)
	}

	// (c) Concurrent submissions: two different shapes pipelined down
	// this one connection must be observed executing simultaneously
	// across the worker processes.
	shapeA := busySpec(6, 6, 600, time.Millisecond)
	shapeB := busySpec(6, 8, 600, time.Millisecond)
	shapeB.Graphs[0].Type = "fft"
	pa, err := cli.SubmitAsync(shapeA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cli.SubmitAsync(shapeB)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "2 jobs running concurrently", 30*time.Second, func(s Stats) bool {
		return s.JobsRunning >= 2
	})
	for name, p := range map[string]*Pending{"A": pa, "B": pb} {
		res, err := p.Wait()
		if err != nil || res.Err != nil {
			t.Fatalf("concurrent job %s: %v / %v", name, err, res.Err)
		}
	}

	// (d) SIGKILL a worker process mid-run: the job must be retried
	// over the two surviving processes and complete.
	long := wire.AppSpec{
		Workers: 6,
		Graphs: []wire.GraphSpec{{
			Steps: 3000, Width: 6, Type: "stencil_1d_periodic",
			KernelSpec: wire.KernelSpec{Kernel: "busy_wait", WaitNanos: int64(time.Millisecond)},
			Output:     64,
		}},
	}
	type outcome struct {
		res JobResult
		err error
	}
	p, err := cli.SubmitAsync(long)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := p.Wait()
		resCh <- outcome{res, err}
	}()
	time.Sleep(500 * time.Millisecond)
	if err := procs[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-resCh:
		if out.err != nil {
			t.Fatalf("protocol error instead of job result: %v", out.err)
		}
		if out.res.Err != nil {
			t.Fatalf("job failed despite retry: %v", out.res.Err)
		}
		if out.res.Workers != 6 {
			t.Errorf("retried job workers = %d, want 6", out.res.Workers)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job hung after worker process was killed")
	}
	if st := coord.Stats(); st.JobsRetried < 1 {
		t.Errorf("jobs retried = %d, want >= 1 after SIGKILL", st.JobsRetried)
	}

	// The queue keeps serving on the surviving processes. (WaitWorkers
	// waits for "at least", so confirm the dead worker really left.)
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet size = %d, want 2 after kill", coord.WorkerCount())
		}
		time.Sleep(20 * time.Millisecond)
	}
	stats, err = cli.Run(stencilSpec(4, 32))
	if err != nil {
		t.Fatalf("post-kill job: %v", err)
	}
	if stats.Workers != 4 {
		t.Errorf("post-kill workers = %d, want 4", stats.Workers)
	}
}

// TestClusterEndToEndDrainAndJoin is the elasticity acceptance test:
// while a job spans two worker processes, a third joins mid-run and
// the drain-enabled process is SIGTERM'd. The running job must finish
// on its original placement (zero retries — drain is not death), the
// drained process must exit with status zero, and the fleet must keep
// serving on the survivor plus the joiner.
func TestClusterEndToEndDrainAndJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	coord, err := Start(Options{
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		SetupTimeout:      30 * time.Second,
		JobTimeout:        60 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spawnWorkerProcess(t, coord.Addr(), "stayer")
	drainer := spawnWorkerProcess(t, coord.Addr(), "drainer", "TASKBENCH_CLUSTER_DRAIN=1")
	if _, err := coord.WaitWorkers(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A job long enough to outlive both fleet events.
	p, err := cli.SubmitAsync(busySpec(4, 6, 2000, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "job running", 30*time.Second, func(s Stats) bool {
		return s.JobsRunning >= 1
	})

	// Mid-run: a worker joins, then the drain-enabled worker is told to
	// leave via SIGTERM.
	spawnWorkerProcess(t, coord.Addr(), "joiner")
	if _, err := coord.WaitWorkers(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := drainer.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "drain observed", 10*time.Second, func(s Stats) bool {
		return s.WorkersDraining == 1
	})

	res, err := p.Wait()
	if err != nil {
		t.Fatalf("protocol error during drain: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("job failed during drain: %v", res.Err)
	}

	// The drained process must exit on its own, with status zero.
	exited := make(chan error, 1)
	go func() { exited <- drainer.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("drained worker exit: %v, want status 0", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker process did not exit")
	}

	waitStats(t, coord, "fleet settles at 2", 10*time.Second, func(s Stats) bool {
		return s.Workers == 2 && s.WorkersDraining == 0
	})
	st := coord.Stats()
	if st.JobsRetried != 0 {
		t.Errorf("jobs retried = %d, want 0 (drain must not trigger worker-lost retries)", st.JobsRetried)
	}
	if st.JobsFailed != 0 {
		t.Errorf("jobs failed = %d, want 0", st.JobsFailed)
	}

	// Post-drain, the shape re-provisions over survivor + joiner — the
	// join marked the old placement stale.
	if _, err := cli.Run(stencilSpec(4, 32)); err != nil {
		t.Fatalf("post-drain job: %v", err)
	}
	if st := coord.Stats(); st.ConfigsReprovisioned < 1 {
		t.Errorf("configs reprovisioned = %d, want >= 1 after join", st.ConfigsReprovisioned)
	}
}
