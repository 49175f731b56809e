package p2p

import (
	"testing"
	"time"

	"taskbench/internal/core"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/runtimetest"
)

func TestRankPolicyConformance(t *testing.T) {
	runtimetest.RankPolicyConformance(t, "p2p")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "p2p", 5)
}

func TestInfo(t *testing.T) {
	rt, err := runtime.New("p2p")
	if err != nil {
		t.Fatal(err)
	}
	info := rt.Info()
	if !info.Distributed || info.Async {
		t.Errorf("unexpected info %+v", info)
	}
}

// TestSparsePairsDoNotDeadlock runs p2p on 4 ranks over patterns whose
// rank pairs carry messages only at some steps, further apart than
// exec.EdgeCap: fft at width 64 (the rank 0 → rank 2 pair talks only at
// its stride-32 steps), tree, dom and random_nearest. A producer may
// run only EdgeCap steps past its consumer's acknowledgement, so unless
// every consumer acknowledges every pair every step, such a producer
// waits for an acknowledgement that only its own next message would
// bring; the deadline names the pair.
func TestSparsePairsDoNotDeadlock(t *testing.T) {
	for _, c := range []struct {
		dep          core.DependenceType
		width, radix int
	}{
		{core.FFT, 64, 0},
		{core.Tree, 64, 0},
		{core.Dom, 64, 0},
		{core.RandomNearest, 64, 5},
	} {
		t.Run(c.dep.String(), func(t *testing.T) {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 40, MaxWidth: c.width, Dependence: c.dep, Radix: c.radix, OutputBytes: 16,
			}))
			runtimetest.FabricRuns(t, app, Policy{}, 4, 1, 3, 60*time.Second)
		})
	}
}
