package cluster

import (
	"testing"
	"time"

	"taskbench/internal/wire"
)

// warmJobMallocs is the most mallocs one warm job may make across the
// whole in-process fleet — client, coordinator and both workers.
const warmJobMallocs = 24

// TestWarmJobMallocs pins the fixed allocation cost of a job on a
// prepared configuration: the shape of the fleet_small_jobs benchmark
// (80 zero-grain tasks over 2 workers) submitted back to back through
// Client.Submit. The heartbeat is slowed to 1s so the control plane's
// background frames stay well under one malloc per job on average.
func TestWarmJobMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	coord, _ := testFleetOpts(t, 2, func(o *Options) {
		o.HeartbeatInterval = time.Second
		o.HeartbeatTimeout = 10 * time.Second
	})
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	spec := wire.AppSpec{
		Workers: 2,
		Graphs: []wire.GraphSpec{{
			Steps: 20, Width: 4, Type: "stencil_1d", Output: 16,
			KernelSpec: wire.KernelSpec{Kernel: "compute_bound"},
		}},
	}
	var res JobResult
	submit := func() {
		if res, err = cli.Submit(spec); err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	submit() // provisions the configuration
	allocs := testing.AllocsPerRun(500, submit)
	t.Logf("a warm job makes %v mallocs", allocs)
	if allocs > warmJobMallocs {
		t.Errorf("a warm job makes %v mallocs, want at most %d", allocs, warmJobMallocs)
	}
}
