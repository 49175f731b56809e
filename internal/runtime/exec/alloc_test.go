package exec_test

// Allocation-regression tests for the steady-state task execution
// path. METG is a measurement of runtime overhead at vanishing task
// granularity, so every per-task heap allocation the benchmark itself
// performs pollutes the measurement: these tests pin the per-task
// allocation count of warmed-up engine-backed and rank-backed runs —
// at zero, except where a policy allocates by what it models.
//
// Method: per-run allocations are fixedOverhead + tasks·perTask (the
// fixed part covers goroutine spawns, the stats struct, policy Init).
// Measuring two session sizes and differencing isolates perTask, which
// must match the policy's figure. A small tolerance absorbs
// runtime-internal noise (stack growth, a queue's occasional regrowth).

import (
	"math"
	stdruntime "runtime"
	"testing"
	"unsafe"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"

	_ "taskbench/internal/runtime/bsp"
	_ "taskbench/internal/runtime/central"
	_ "taskbench/internal/runtime/dataflow"
	_ "taskbench/internal/runtime/dtd"
	_ "taskbench/internal/runtime/events"
	_ "taskbench/internal/runtime/graphexec"
	_ "taskbench/internal/runtime/p2p"
	_ "taskbench/internal/runtime/places"
	_ "taskbench/internal/runtime/steal"
	_ "taskbench/internal/runtime/taskpool"
)

// perTaskAllocBudget is the tolerated per-task allocation estimate.
// A real regression costs ≥1 alloc per task; noise amortized over the
// ~2000-task size delta stays far below this.
const perTaskAllocBudget = 0.05

func allocApp(steps int) *core.App {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: steps, MaxWidth: 8, Dependence: core.Stencil1D, OutputBytes: 64,
	}))
	app.Workers = 4
	return app
}

// TestZeroAllocsPerTaskEngine pins every engine policy's per-task
// allocation figure. The queue policies allocate nothing per task. Two
// allocate by what they model, and their figures are pinned rather
// than exempted, so an allocation added to their path shows here too:
// events (and dataflow, which embeds it) allocates one subscription
// closure per task and grows each event's subscriber list, because a
// waiter per event is the Realm paradigm — on allocApp's stencil that
// is exactly 4.75 per task; central copies every ready batch it ships,
// because that copy is the completion message a Spark executor sends
// its driver — exactly 0.875 per task.
func TestZeroAllocsPerTaskEngine(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	for _, c := range []struct {
		name    string
		perTask float64
	}{
		{"taskpool", 0}, {"steal", 0}, {"graphexec", 0}, {"places", 0},
		{"events", 4.75}, {"dataflow", 4.75}, {"central", 0.875},
	} {
		name := c.name
		t.Run(name, func(t *testing.T) {
			allocsAt := func(steps int) (float64, int64) {
				rt, err := runtime.New(name)
				if err != nil {
					t.Fatal(err)
				}
				pb, ok := rt.(runtime.PolicyBacked)
				if !ok {
					t.Fatalf("%s is not policy-backed", name)
				}
				app := allocApp(steps)
				sess := exec.NewSession(app, pb.Policy())
				var runErr error
				run := func() {
					_, runErr = sess.Run()
				}
				run() // warm: populate buffer pools and grow queues
				if runErr != nil {
					t.Fatal(runErr)
				}
				allocs := testing.AllocsPerRun(5, run)
				if runErr != nil {
					t.Fatal(runErr)
				}
				return allocs, app.TotalTasks()
			}
			smallAllocs, smallTasks := allocsAt(16)
			bigAllocs, bigTasks := allocsAt(272)
			perTask := (bigAllocs - smallAllocs) / float64(bigTasks-smallTasks)
			if math.Abs(perTask-c.perTask) > perTaskAllocBudget {
				t.Errorf("%s steady state allocates %.3f allocs/task, want %g (run allocs: %d tasks → %.0f, %d tasks → %.0f)",
					name, perTask, c.perTask, smallTasks, smallAllocs, bigTasks, bigAllocs)
			}
		})
	}
}

// TestZeroAllocsPerTaskRanks covers every distinct rank step that is
// meant to be allocation-free in steady state: p2p's eager sends (which
// tcp, ptg, shard and actor reuse), bsp's barrier phases and dtd's
// whole-width discovery walk. hybrid (and coforall, which runs its
// step) stays out until ROADMAP item 11: its fork-join spawns a
// goroutine per chunk per step.
func TestZeroAllocsPerTaskRanks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	for _, name := range []string{"p2p", "bsp", "dtd"} {
		t.Run(name, func(t *testing.T) {
			allocsAt := func(steps int) (float64, int64) {
				rt, err := runtime.New(name)
				if err != nil {
					t.Fatal(err)
				}
				rb, ok := rt.(runtime.RankBacked)
				if !ok {
					t.Fatalf("%s is not rank-backed", name)
				}
				app := allocApp(steps)
				sess, err := exec.NewRankSession(app, rb.RankPolicy())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sess.Close)
				var runErr error
				run := func() {
					_, runErr = sess.Run()
				}
				run() // warm: allocate every slot on its first use
				if runErr != nil {
					t.Fatal(runErr)
				}
				allocs := testing.AllocsPerRun(5, run)
				if runErr != nil {
					t.Fatal(runErr)
				}
				return allocs, app.TotalTasks()
			}
			smallAllocs, smallTasks := allocsAt(16)
			bigAllocs, bigTasks := allocsAt(272)
			perTask := (bigAllocs - smallAllocs) / float64(bigTasks-smallTasks)
			if perTask > perTaskAllocBudget {
				t.Errorf("%s steady state allocates %.3f allocs/task, want 0 (run allocs: %d tasks → %.0f, %d tasks → %.0f)",
					name, perTask, smallTasks, smallAllocs, bigTasks, bigAllocs)
			}
		})
	}
}

// TestPlannedTaskPadding pins the false-sharing fix: task slots must
// tile in whole multiples of 128 bytes (two cache lines) so adjacent
// tasks' atomic counters never share a line.
func TestPlannedTaskPadding(t *testing.T) {
	var task exec.PlannedTask
	if size := unsafe.Sizeof(task); size%128 != 0 {
		t.Errorf("PlannedTask is %d bytes, want a multiple of 128", size)
	}
}

// TestWarmSessionRunAllocs pins what a warm Session.Run may allocate
// per run. An allocation-free policy allocates the run's error
// capture, completion count and WaitGroup, and each worker goroutine
// with its closure: policy state, worker buffers and payload rows all
// carry over from the previous run. steal is allowed one more per
// worker: a steal takes the front of the victim's slice, so its
// capacity shrinks until an append reallocates it. events and dataflow
// build their event graph anew each run, and central copies each ready
// batch; their counts are the measured ones at this shape, so an
// allocation added once per run — which the per-task slope above
// cancels out — shows here.
func TestWarmSessionRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	const workers = 4
	const base = 3 + 2*workers
	for _, c := range []struct {
		name    string
		ceiling float64
	}{
		{"taskpool", base}, {"steal", base + workers}, {"graphexec", base}, {"places", base},
		{"events", 2416}, {"dataflow", 2417}, {"central", 463},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, err := runtime.New(c.name)
			if err != nil {
				t.Fatal(err)
			}
			app := allocApp(64)
			app.Workers = workers
			sess := exec.NewSession(app, rt.(runtime.PolicyBacked).Policy())
			var runErr error
			run := func() {
				_, runErr = sess.Run()
			}
			run() // warm: grow queues and take the rows
			allocs := testing.AllocsPerRun(20, run)
			if runErr != nil {
				t.Fatal(runErr)
			}
			if allocs > c.ceiling {
				t.Errorf("%s: a warm run allocates %.1f objects, want at most %.0f", c.name, allocs, c.ceiling)
			}
		})
	}
}

// TestWarmRankSessionRunAllocs pins what a warm RankSession.Run of the
// allocation-free rank steps allocates at one P, as the benchmark runs:
// the run's error capture and WaitGroup, and two for the go statement
// of the one driver that steps all four ranks. A goroutine per rank, as
// before the drivers, made it 6 at two ranks and 10 at four.
func TestWarmRankSessionRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless")
	}
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	for _, name := range []string{"p2p", "bsp", "dtd"} {
		t.Run(name, func(t *testing.T) {
			rt, err := runtime.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := exec.NewRankSession(allocApp(64), rt.(runtime.RankBacked).RankPolicy())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var runErr error
			run := func() {
				_, runErr = sess.Run()
			}
			run() // warm: allocate every slot on its first use
			allocs := testing.AllocsPerRun(20, run)
			if runErr != nil {
				t.Fatal(runErr)
			}
			if allocs != 4 {
				t.Errorf("%s: a warm run at one P allocates %.1f objects, want 4", name, allocs)
			}
		})
	}
}
