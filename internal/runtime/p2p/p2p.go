// Package p2p implements the MPI point-to-point analog: ranks stepped
// by the rank engine's drivers, columns block-distributed over ranks,
// and one send/receive pair of payload slots per dependence edge that
// crosses a rank boundary (paper §3.4), synchronised once per timestep
// per rank pair.
// Each rank alternates a receive+compute phase with sends issued as
// soon as each task completes, the best performing strategy the paper
// found for MPI.
package p2p

import (
	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

// Policy is the eager point-to-point discipline: each rank walks its
// owned window in program order, receiving and computing each task and
// sending its output to remote consumers the moment it is produced.
// The tcp backend reuses this policy over its wire transport, the
// actor backend under a rank-per-column layout, and ptg and shard as
// is (the plan's compiled routes are ptg's firing rules, and the owned
// window is shard's pruned walk).
type Policy struct{}

// Layout runs one single-threaded rank per worker.
func (Policy) Layout(app *core.App) exec.RankLayout { return exec.FlatLayout(app) }

// Step receives, computes and eagerly sends one timestep of every
// graph.
func (Policy) Step(rc *exec.RankCtx, t int) {
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		lo, hi := rc.Window(gi, t)
		for i := lo; i < hi; i++ {
			rc.SendOutputs(gi, t, i, rc.Run(gi, t, i))
		}
		rc.Flip(gi)
	}
}

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "p2p",
		Analog:      "MPI p2p",
		Paradigm:    "message passing",
		Parallelism: "explicit",
		Distributed: true,
		Async:       false,
		Notes:       "rank per worker; per-edge slots; slots written per task, published per step",
	}, func() exec.RankPolicy { return Policy{} })
}
