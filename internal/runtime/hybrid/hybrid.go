// Package hybrid implements the MPI+OpenMP analog (paper §3.5): a
// small number of ranks (nodes) communicate point-to-point, and within
// each rank a forall-style parallel loop executes the rank's tasks
// each timestep. The fork-join inside every timestep is the
// hierarchical-model overhead the paper studies; communication is
// funneled through the rank itself between joins.
package hybrid

import (
	"sync"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "hybrid",
		Analog:      "MPI+OpenMP",
		Paradigm:    "hybrid message passing + forall",
		Parallelism: "explicit",
		Distributed: true,
		Async:       false,
		Notes:       "p2p between ranks, fork-join parallel loop within each rank",
	}, func() exec.RankPolicy { return Policy{} })
}

// Policy is the ranks-of-engines discipline: each rank forks a
// parallel loop over its owned columns every timestep (each chunk
// worker receives its own remote inputs — edges are per-consumer, so
// chunks never contend on a ring), joins, and then communicates in
// a funneled phase. The coforall backend reuses it on a single rank,
// where the send lists are empty and only the fork-join remains.
type Policy struct{}

// Layout decomposes the workers into app.Nodes ranks of equal thread
// counts, defaulting to two nodes.
func (Policy) Layout(app *core.App) exec.RankLayout {
	workers := exec.WorkersFor(app)
	nodes := app.Nodes
	if nodes <= 0 {
		nodes = 2
	}
	if nodes > workers {
		nodes = workers
	}
	threads := workers / nodes
	if threads < 1 {
		threads = 1
	}
	return exec.RankLayout{Ranks: nodes, Threads: threads}
}

// Step forks one goroutine per chunk of the rank's window, joins, and
// sends the step's outputs from the rank's own goroutine.
func (Policy) Step(rc *exec.RankCtx, t int) {
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		lo, hi := rc.Window(gi, t)
		if lo >= hi {
			rc.Flip(gi)
			continue
		}
		// Fork: parallel loop over this rank's columns.
		chunks := exec.BlockAssign(hi-lo, rc.Threads())
		var wg sync.WaitGroup
		for _, chunk := range chunks {
			if chunk.Len() == 0 {
				continue
			}
			wg.Add(1)
			go func(chunk exec.Span) {
				defer wg.Done()
				var inputs [][]byte
				for i := lo + chunk.Lo; i < lo+chunk.Hi; i++ {
					inputs, _ = rc.RunInto(inputs, gi, t, i)
				}
			}(chunk)
		}
		wg.Wait()
		// Join: funneled communication phase.
		for i := lo; i < hi; i++ {
			rc.SendOutputs(gi, t, i, rc.Cur(gi, i))
		}
		rc.Flip(gi)
	}
}
