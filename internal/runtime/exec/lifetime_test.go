package exec_test

// Buffer-lifetime tests. A producer takes its output buffer with one
// reference per reader and holds none itself; the count is set with a
// plain store and published to the readers by the dependence-counter
// burn-down. These tests run that contract on every engine policy and
// check that an output nobody reads recycles at once.

import (
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
)

// TestBufferLifetimeEveryPolicy runs every engine policy over every
// dependence type at one and four workers, twice per Session so the
// second run reuses recycled buffers. Validation checks every payload a
// task reads, so a buffer recycled before its last reader fails the run;
// a double release panics in Buf.Release; under -race a reader that is
// not ordered after its producer's store to the count is reported. The
// trivial pattern gives every output zero readers, and the last
// timestep of every graph has none either.
func TestBufferLifetimeEveryPolicy(t *testing.T) {
	for _, name := range runtime.Names() {
		rt, err := runtime.New(name)
		if err != nil {
			t.Fatal(err)
		}
		pb, ok := rt.(runtime.PolicyBacked)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, dep := range core.DependenceTypes() {
				radix := 0
				if dep == core.Nearest || dep == core.Spread || dep == core.RandomNearest {
					radix = 5
				}
				for _, workers := range []int{1, 4} {
					app := core.NewApp(core.MustNew(core.Params{
						Timesteps: 6, MaxWidth: 8, Dependence: dep, Radix: radix,
						OutputBytes: 32, Seed: 5,
					}))
					app.Workers = workers
					sess := exec.NewSession(app, pb.Policy())
					for run := 0; run < 2; run++ {
						if _, err := sess.Run(); err != nil {
							t.Fatalf("%s workers=%d run %d: %v", dep, workers, run, err)
						}
					}
				}
			}
		})
	}
}

// TestZeroReaderOutputsRecycle executes a trivial graph, whose outputs
// have no readers, task by task through Plan.Execute: once the pool is
// warm, every output must come back from the pool rather than be
// allocated again.
func TestZeroReaderOutputsRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 16, MaxWidth: 8, Dependence: core.Trivial, OutputBytes: 64,
	}))
	plan := exec.BuildPlan(app)
	pools := exec.NewPools(app)
	out := make([]*exec.Buf, len(plan.Tasks))
	var inputs [][]byte
	var err error
	runAll := func() {
		for _, id := range plan.Seeds {
			if inputs, err = plan.Execute(id, out, pools, true, inputs); err != nil {
				return
			}
		}
	}
	runAll() // warm: one buffer enters the pool
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, runAll); allocs != 0 {
		t.Errorf("%d zero-reader tasks allocate %.0f objects per pass, want 0", len(plan.Seeds), allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
