package actor

import (
	stdruntime "runtime"
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/runtimetest"
)

func TestRankPolicyConformance(t *testing.T) {
	runtimetest.RankPolicyConformance(t, "actor")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "actor", 5)
}

// Sixteen chares on four workers are still four workers: the chare
// count must not leak into the statistics TaskGranularity is computed
// from.
func TestWorkersAreCoresNotChares(t *testing.T) {
	rt, err := runtime.New("actor")
	if err != nil {
		t.Fatal(err)
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 6, MaxWidth: 16, Dependence: core.Stencil1D,
	}))
	app.Workers = 4
	stats, err := rt.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 {
		t.Errorf("Workers = %d, want 4 (16 chares multiplexed over 4 workers)", stats.Workers)
	}
}

// A rank per column is only affordable because each rank's payload rows
// are backed for its own span: 256 chares × 4 KiB outputs need 2 MiB of
// rows, 3 MiB of row headers and at most 10 MiB of ring slots. Rows
// backed for the whole width on every rank were 512 MiB here — the
// quadratic regression this bound catches.
func TestChareMemoryIsLinearInWidth(t *testing.T) {
	const width, outputBytes, bound = 256, 4096, 32 << 20
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 8, MaxWidth: width, Dependence: core.Stencil1D, OutputBytes: outputBytes,
	}))
	var before, after stdruntime.MemStats
	stdruntime.ReadMemStats(&before)
	sess, err := exec.NewRankSession(app, policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Plan.Ranks != width {
		t.Fatalf("plan has %d ranks, want one per column (%d)", sess.Plan.Ranks, width)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	stdruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("building and running %d chares × %d B allocated %d MiB, want ≤ %d MiB",
			width, outputBytes, got>>20, bound>>20)
	} else {
		t.Logf("allocated %.1f MiB", float64(got)/(1<<20))
	}
}
