// Package actor implements the Charm++ analog (paper §3.2): one chare
// per column, communicating exclusively by messages. A chare executes
// its task for a timestep as soon as that task's dependencies have
// arrived — fully asynchronous, message-driven execution with no global
// phases, which is what lets the actor model overlap communication and
// computation and absorb load imbalance (paper §5.6, §5.7).
//
// Over-decomposition and message-driven progress are what the paper
// credits Charm++ with, and both are a layout of the p2p policy rather
// than a new mechanism: with one rank per column every chare is a
// goroutine that advances whenever its own inputs are in, the Go
// scheduler multiplexes the chares over the cores, and a chare's
// mailbox is the slot rings of its incoming edges.
package actor

import (
	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "actor",
		Analog:      "Charm++",
		Paradigm:    "actor model",
		Parallelism: "explicit",
		Distributed: true,
		Async:       true,
		Notes:       "p2p's eager step under a chare-per-column layout; tasks fire when all dependence messages arrive",
	}, func() exec.RankPolicy { return policy{} })
}

// policy is p2p's Step under a chare-per-column layout.
type policy struct{ p2p.Policy }

// Layout over-decomposes to one single-threaded rank per column of the
// widest graph, however few cores there are.
func (policy) Layout(app *core.App) exec.RankLayout {
	chares := 1
	for _, g := range app.Graphs {
		chares = max(chares, g.MaxWidth)
	}
	return exec.RankLayout{Ranks: chares, Threads: 1}
}
