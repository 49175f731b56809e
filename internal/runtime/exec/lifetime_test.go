package exec_test

// Payload-lifetime tests. A task writes an output somebody reads into
// its column's slot of its step's row, taken from the plan's free list
// by the step's first such writer; the readers, all in the next step,
// count themselves off the step and the last one hands the row back.
// An output nobody reads goes to the worker's sink. These tests run
// that contract on every engine policy.

import (
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
)

// TestBufferLifetimeEveryPolicy runs every engine policy over every
// dependence type at one and four workers, twice per Session so the
// second run reuses recycled rows. Validation checks every payload a
// task reads, so a row recycled before its last reader fails the run;
// under -race a reader that is not ordered after its producer's write
// to the slot is reported. The trivial pattern gives every output zero
// readers, and the last timestep of every graph has none either.
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

// TestStepRowsReturnEveryPolicy runs every engine policy over every
// dependence type at one and four workers and checks the row free
// list: after a run every row is back on it and no step holds one,
// which a row taken for a step nobody reads would break, since no
// reader would release it; the trivial pattern, whose outputs have no
// readers, takes no row at all; and with one worker a second run of the
// Session takes every row from the list and allocates none. With four,
// a second run allocates when its peak exceeds the first's. It logs the
// peak rows in use, which the free list's length is: a row is allocated
// only when every earlier one is in use.
//
// One worker fixes the schedule only for a policy whose run starts no
// goroutine besides the engine's workers. dataflow's interpreter wires
// statements beside the worker, so its peak rows depend on the Go
// scheduler; for it the second run must give back every row it took
// (the list keeps the first run's rows) and hold at most one per step.
func TestStepRowsReturnEveryPolicy(t *testing.T) {
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
						Timesteps: 12, MaxWidth: 16, Dependence: dep, Radix: radix,
						OutputBytes: 32, Seed: 5,
					}))
					app.Workers = workers
					sess := exec.NewSession(app, pb.Policy())
					peak := 0
					for run := 0; run < 2; run++ {
						if _, err := sess.Run(); err != nil {
							t.Fatalf("%s workers=%d run %d: %v", dep, workers, run, err)
						}
						free, held := sess.Plan.RowCensus()
						if held != 0 {
							t.Errorf("%s workers=%d run %d: %d steps still hold a row", dep, workers, run, held)
						}
						switch {
						case run == 0:
							peak = free
						case name == "dataflow":
							if free < peak || free > app.Graphs[0].Timesteps {
								t.Errorf("%s workers=%d: second run left %d rows on the free list, first %d, steps %d",
									dep, workers, free, peak, app.Graphs[0].Timesteps)
							}
						case workers == 1 && free != peak:
							t.Errorf("%s: second run left %d rows on the free list, first %d", dep, free, peak)
						}
					}
					if dep == core.Trivial && peak != 0 {
						t.Errorf("workers=%d: trivial outputs have no readers but took %d rows", workers, peak)
					}
					t.Logf("%s workers=%d: peak %d rows in use", dep, workers, peak)
				}
			}
		})
	}
}

// TestZeroReaderOutputsRecycle executes a trivial graph, whose outputs
// have no readers, task by task through Plan.Execute: every output
// must go to the sink, so no pass allocates and no row is ever taken.
func TestZeroReaderOutputsRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 16, MaxWidth: 8, Dependence: core.Trivial, OutputBytes: 64,
	}))
	plan := exec.BuildPlan(app)
	sink := make([]byte, 64)
	var inputs [][]byte
	var err error
	runAll := func() {
		for _, id := range plan.Seeds {
			if inputs, err = plan.Execute(id, sink, true, inputs); err != nil {
				return
			}
		}
	}
	runAll() // warm: the gather buffer
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, runAll); allocs != 0 {
		t.Errorf("%d zero-reader tasks allocate %.0f objects per pass, want 0", len(plan.Seeds), allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if free, held := plan.RowCensus(); free+held != 0 {
		t.Errorf("zero-reader outputs took rows: %d free, %d held", free, held)
	}
}
