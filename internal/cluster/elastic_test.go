package cluster

import (
	"bufio"
	"net"
	"testing"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/wire"
)

// TestClusterJoinReprovisionsShape pins join-triggered growth: a shape
// prepared while the fleet was small goes stale when a worker joins
// with spare room for its ranks, and the next job of that shape is
// re-provisioned over the grown fleet instead of running forever on
// the old, narrower placement.
func TestClusterJoinReprovisionsShape(t *testing.T) {
	coord, _ := testFleet(t, 1)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Two ranks squeezed onto the single worker.
	spec := stencilSpec(2, 64)
	if _, err := cli.Run(spec); err != nil {
		t.Fatalf("pre-join run: %v", err)
	}
	if st := coord.Stats(); st.ConfigsBuilt != 1 {
		t.Fatalf("configs built = %d, want 1", st.ConfigsBuilt)
	}

	// A second worker registers mid-flight.
	late := NewWorker(WorkerOptions{
		Coordinator: coord.Addr(),
		Name:        "late-join",
		Logf:        t.Logf,
	})
	go late.Run()
	t.Cleanup(late.Close)
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The same shape must be rebuilt over the grown fleet.
	if _, err := cli.Run(spec); err != nil {
		t.Fatalf("post-join run: %v", err)
	}
	st := coord.Stats()
	if st.ConfigsReprovisioned < 1 {
		t.Errorf("configs reprovisioned = %d, want >= 1 after join", st.ConfigsReprovisioned)
	}
	if st.ConfigsBuilt != 2 {
		t.Errorf("configs built = %d, want 2 (stale config rebuilt)", st.ConfigsBuilt)
	}
}

// TestClusterDrainMidRun pins the graceful-departure contract: a
// worker draining while it hosts ranks of a running job lets that run
// finish (no errWorkerLost retry, no failure), is excluded from new
// placement, and its Run call returns nil once the coordinator
// releases it — the clean-exit path, distinct from heartbeat death.
func TestClusterDrainMidRun(t *testing.T) {
	coord, _ := testFleetOpts(t, 1, nil)
	drainee := NewWorker(WorkerOptions{
		Coordinator: coord.Addr(),
		Name:        "drainee",
		Logf:        t.Logf,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- drainee.Run() }()
	t.Cleanup(drainee.Close)
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A job slow enough to still be running when the drain lands.
	p, err := cli.SubmitAsync(busySpec(2, 6, 400, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "job running", 20*time.Second, func(s Stats) bool {
		return s.JobsRunning >= 1
	})
	if err := drainee.Drain(); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "drain observed", 5*time.Second, func(s Stats) bool {
		return s.WorkersDraining == 1
	})

	res, err := p.Wait()
	if err != nil {
		t.Fatalf("protocol error during drain: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("job failed during drain: %v", res.Err)
	}

	// The worker's Run must return nil — the coordinator confirmed the
	// drain rather than cutting the connection.
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained worker Run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker did not exit")
	}

	waitStats(t, coord, "fleet shrinks to 1", 10*time.Second, func(s Stats) bool {
		return s.Workers == 1 && s.WorkersDraining == 0
	})
	st := coord.Stats()
	if st.JobsRetried != 0 {
		t.Errorf("jobs retried = %d, want 0 (drain must not look like death)", st.JobsRetried)
	}
	if st.JobsFailed != 0 {
		t.Errorf("jobs failed = %d, want 0", st.JobsFailed)
	}

	// The survivor keeps serving.
	if _, err := cli.Run(stencilSpec(1, 32)); err != nil {
		t.Fatalf("post-drain run: %v", err)
	}
}

// TestClusterDuplicateRegistrationReplaces pins fast-restart identity:
// a worker re-registering under a name already in the fleet replaces
// the stale entry instead of double-counting scheduler slots.
func TestClusterDuplicateRegistrationReplaces(t *testing.T) {
	coord, _ := testFleet(t, 2)
	restarted := NewWorker(WorkerOptions{
		Coordinator: coord.Addr(),
		Name:        "wA", // same identity as testFleet's first worker
		Logf:        t.Logf,
	})
	go restarted.Run()
	t.Cleanup(restarted.Close)

	// The fleet must settle back at 2 — and stay there across a few
	// heartbeats, which catches both double-counting (3) and the
	// replacement evicting the wrong entry (1).
	waitStats(t, coord, "replacement settles", 10*time.Second, func(s Stats) bool {
		return s.Workers == 2
	})
	time.Sleep(300 * time.Millisecond)
	if n := coord.WorkerCount(); n != 2 {
		t.Fatalf("fleet size = %d after re-registration, want 2", n)
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Run(stencilSpec(2, 32)); err != nil {
		t.Fatalf("run after replacement: %v", err)
	}
}

// TestClusterEvictsColdConfigs pins the MaxConfigs LRU cap: preparing
// more shapes than the cap allows evicts the coldest idle
// configuration rather than growing without bound, and every job still
// completes.
func TestClusterEvictsColdConfigs(t *testing.T) {
	coord, _ := testFleetOpts(t, 1, func(o *Options) { o.MaxConfigs = 2 })
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for width := 2; width <= 5; width++ {
		if _, err := cli.Run(busySpec(1, width, 4, 100*time.Microsecond)); err != nil {
			t.Fatalf("width-%d run: %v", width, err)
		}
	}
	st := coord.Stats()
	if st.ConfigsBuilt != 4 {
		t.Errorf("configs built = %d, want 4", st.ConfigsBuilt)
	}
	if st.ConfigsEvicted < 2 {
		t.Errorf("configs evicted = %d, want >= 2 under MaxConfigs=2", st.ConfigsEvicted)
	}

	// An evicted shape rebuilds transparently on its next job.
	if _, err := cli.Run(busySpec(1, 2, 4, 100*time.Microsecond)); err != nil {
		t.Fatalf("re-run of evicted shape: %v", err)
	}
	if st := coord.Stats(); st.ConfigsBuilt != 5 {
		t.Errorf("configs built = %d after evicted-shape re-run, want 5", st.ConfigsBuilt)
	}
}

// TestClusterChaosResetMidRun pins crash recovery under the scripted
// harness: a worker whose chaos scenario resets its control connection
// at the mid-run point dies from the coordinator's perspective, and
// the job retries over the survivor and completes.
func TestClusterChaosResetMidRun(t *testing.T) {
	coord, _ := testFleetOpts(t, 1, nil)
	sc, err := chaos.Parse("reset:at=mid-run,n=1")
	if err != nil {
		t.Fatal(err)
	}
	chaotic := NewWorker(WorkerOptions{
		Coordinator: coord.Addr(),
		Name:        "chaotic",
		Chaos:       chaos.NewInjector(sc, 42),
		Logf:        t.Logf,
	})
	go chaotic.Run()
	t.Cleanup(chaotic.Close)
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Run(stencilSpec(2, 64)); err != nil {
		t.Fatalf("job failed despite retry: %v", err)
	}
	st := coord.Stats()
	if st.JobsRetried < 1 {
		t.Errorf("jobs retried = %d, want >= 1 after chaos reset", st.JobsRetried)
	}
	waitStats(t, coord, "chaotic worker declared dead", 10*time.Second, func(s Stats) bool {
		return s.Workers == 1
	})
}

// TestClusterChaosHeartbeatMute pins the dead-air scenario: a worker
// whose heartbeats are muted by the chaos schedule trips the
// coordinator's heartbeat timeout and leaves the fleet, while the
// unmuted worker stays.
func TestClusterChaosHeartbeatMute(t *testing.T) {
	coord, _ := testFleetOpts(t, 1, nil)
	sc, err := chaos.Parse("mute-hb:after=1,n=1000")
	if err != nil {
		t.Fatal(err)
	}
	muted := NewWorker(WorkerOptions{
		Coordinator: coord.Addr(),
		Name:        "muted",
		Chaos:       chaos.NewInjector(sc, 7),
		Logf:        t.Logf,
	})
	go muted.Run()
	t.Cleanup(muted.Close)
	if _, err := coord.WaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	waitStats(t, coord, "muted worker times out", 10*time.Second, func(s Stats) bool {
		return s.Workers == 1
	})
}

// TestClusterWelcomePrecedesPrepare pins the registration order: a
// worker is published to the fleet only after its welcome is written,
// so a job already waiting for the fleet to grow cannot send prepare
// first (nor read the connection's chaos injector while serveWorker is
// still setting it — a race -race reports on every join if the order
// regresses). The waiting job is parked by draining the only real
// worker under a running job; each raw-socket worker that joins must
// see welcome and then that job's prepare, and then hangs up, which
// parks the job again for the next join.
func TestClusterWelcomePrecedesPrepare(t *testing.T) {
	const joins = 25
	coord, workers := testFleetOpts(t, 1, func(o *Options) { o.MaxAttempts = 2*joins + 4 })
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	hold, err := cli.SubmitAsync(busySpec(1, 1, 60000, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Cancel()
	waitStats(t, coord, "holding job running", 20*time.Second, func(s Stats) bool { return s.JobsRunning >= 1 })
	if err := workers[0].Drain(); err != nil {
		t.Fatal(err)
	}
	waitStats(t, coord, "drain observed", 5*time.Second, func(s Stats) bool { return s.WorkersDraining == 1 })

	// Every live worker is draining, so this job's attempts fail
	// retryably and wait for the next fleet change.
	waiting, err := cli.SubmitAsync(stencilSpec(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer waiting.Cancel()
	for k := 0; k < joins; k++ {
		// One retry per join for the dead raw worker, one for finding
		// the fleet all-draining again: the job is parked once more.
		retried := 1 + 2*k
		waitStats(t, coord, "job parked", 10*time.Second, func(s Stats) bool { return s.JobsRetried >= retried })
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := wire.WriteMessageBinary(conn, wire.Message{Type: wire.MsgRegister}); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		for _, want := range []string{wire.MsgWelcome, wire.MsgPrepare} {
			m, err := wire.ReadMessageFrom(br)
			if err != nil {
				t.Fatalf("join %d: reading %s: %v", k, want, err)
			}
			if m.Type != want {
				t.Fatalf("join %d: expected %s, got %q", k, want, m.Type)
			}
		}
		conn.Close()
	}
}
