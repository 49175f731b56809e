package hybrid

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/runtimetest"
)

func TestRankPolicyConformance(t *testing.T) {
	runtimetest.RankPolicyConformance(t, "hybrid")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "hybrid", 5)
}

func TestExplicitNodeCount(t *testing.T) {
	rt, err := runtime.New("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 6, MaxWidth: 16, Dependence: core.Stencil1D,
	}))
	app.Nodes = 4
	app.Workers = 8
	stats, err := rt.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 8 {
		t.Errorf("Workers = %d, want 8 (4 nodes × 2 threads)", stats.Workers)
	}
}

// TestParkedThreadsAllWake runs hybrid's fork-join step at 2 ranks × 3
// threads over rank_spread's graph (spread, radix 5, width 8), 200
// times through one reused engine, at 1, 2 and 4 Ps. Several threads of
// a rank park on the same rank pair waiting for a peer's step: a
// publication must wake every one of them, or the run wedges and the
// deadline names the pair.
func TestParkedThreadsAllWake(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 20, MaxWidth: 8, Dependence: core.Spread, Radix: 5, OutputBytes: 16,
			}))
			runtimetest.FabricRuns(t, app, Policy{}, 2, 3, 200, 60*time.Second)
		})
	}
}
