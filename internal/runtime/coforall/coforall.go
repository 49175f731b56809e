// Package coforall implements the Chapel-default analog (paper §3.1):
// explicit task instantiation with a coforall-style parallel loop over
// the columns of every timestep, bulk access to the shared payload
// rows, and a join before the next timestep. Unlike steal there is no
// work stealing — the paper contrasts exactly these two Chapel
// schedulers in §5.7 — and unlike hybrid there is no rank partitioning
// or message passing: Chapel's default scheduler is MPI+OpenMP's
// parallel loop without the ranks, so this backend is hybrid's
// fork-join policy on one rank, where every dependence is a read of
// the rank's own previous row and the send lists are empty.
package coforall

import (
	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/hybrid"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "coforall",
		Analog:      "Chapel (default scheduler)",
		Paradigm:    "fork-join parallel loops (PGAS-style shared rows)",
		Parallelism: "both",
		Distributed: false,
		Async:       false,
		Notes:       "hybrid's fork-join step on a single rank: coforall over columns per timestep; no stealing, no messages",
	}, func() exec.RankPolicy { return policy{} })
}

// policy is hybrid's Step under a one-rank layout.
type policy struct{ hybrid.Policy }

// Layout puts every worker in the one rank's parallel loop.
func (policy) Layout(app *core.App) exec.RankLayout {
	return exec.RankLayout{Ranks: 1, Threads: exec.WorkersFor(app)}
}
