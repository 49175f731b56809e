// Package bsp implements the MPI bulk-synchronous analog: like p2p,
// but every timestep ends with a global barrier that enforces the
// boundary between the communication and computation phases (paper
// §3.4, "bulk synchronous implementation which enforces the boundary
// ... with MPI_Barrier"). The barrier is pure overhead relative to
// p2p and couples every rank to the slowest one — the structural
// reason MPI suffers most under load imbalance (paper §5.7).
package bsp

import (
	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "bsp",
		Analog:      "MPI bulk sync",
		Paradigm:    "message passing",
		Parallelism: "explicit",
		Distributed: true,
		Async:       false,
		Notes:       "global barrier per timestep between compute and communication phases",
	}, func() exec.RankPolicy { return policy{} })
}

// policy is the bulk-synchronous discipline: compute every owned task
// of the step, then communicate every output, then hit the global
// barrier.
type policy struct{}

func (policy) Layout(app *core.App) exec.RankLayout { return exec.FlatLayout(app) }

func (policy) Step(rc *exec.RankCtx, t int) {
	// Phase 1: receive and compute every owned task of the step.
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		lo, hi := rc.Window(gi, t)
		for i := lo; i < hi; i++ {
			rc.Run(gi, t, i)
		}
	}
	// Phase 2: communicate every output produced in the step.
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		lo, hi := rc.Window(gi, t)
		for i := lo; i < hi; i++ {
			rc.SendOutputs(gi, t, i, rc.Cur(gi, i))
		}
		rc.Flip(gi)
	}
	// Phase 3: global barrier.
	rc.Barrier()
}
