// Package ptg implements the PaRSEC parameterized-task-graph analog
// (paper §3.8): the algebraic description of the task graph is
// expanded at "compile time" — before the timed region — into per-rank
// firing rules, so execution walks precompiled task and communication
// lists with no graph queries at all. That expansion is what
// exec.RankPlan already does for every rank backend: it compiles each
// local column's gather and send routes at plan construction. So ptg
// is p2p's eager step, and the DTD-vs-PTG comparison of §5.4 is dtd's
// whole-graph discovery walk against this one.
package ptg

import (
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "ptg",
		Analog:      "PaRSEC PTG",
		Paradigm:    "task-based (parameterized task graph)",
		Parallelism: "implicit",
		Distributed: true,
		Async:       false,
		Notes:       "dependence relations expanded to firing rules before execution",
	}, func() exec.RankPolicy { return p2p.Policy{} })
}
