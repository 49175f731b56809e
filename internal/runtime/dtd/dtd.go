// Package dtd implements the PaRSEC dynamic-task-discovery / StarPU
// sequential-task-flow analog (paper §3.8, §3.12). The program is
// executed in SPMD fashion: every rank enumerates EVERY task of the
// graph in program order and dynamically checks, task by task, whether
// the task is local or communicates with local data. These dynamic
// checks scale with the total graph width and are the scalability
// bottleneck the paper highlights (§5.4).
//
// The package registers two backends:
//
//   - "dtd": full SPMD enumeration with per-task dynamic checks.
//   - "shard": the paper's manually optimized variant that skips
//     enumeration of tasks that cannot touch local data, completely
//     eliminating the dynamic checks.
package dtd

import (
	"sync/atomic"

	"taskbench/internal/core"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "dtd",
		Analog:      "PaRSEC DTD / StarPU STF",
		Paradigm:    "task-based (dynamic task discovery)",
		Parallelism: "implicit",
		Distributed: true,
		Async:       false,
		Notes:       "SPMD enumeration of the whole graph with per-task dynamic checks",
	}, func() exec.RankPolicy { return policy{shard: false} })
	runtime.RegisterRanks(runtime.Info{
		Name:        "shard",
		Analog:      "PaRSEC shard",
		Paradigm:    "task-based (manually sharded DTD)",
		Parallelism: "implicit",
		Distributed: true,
		Async:       false,
		Notes:       "enumerates only tasks adjacent to owned columns; no dynamic checks",
	}, func() exec.RankPolicy { return policy{shard: true} })
}

// checkSink keeps the dynamic-check work observable so the compiler
// cannot elide it.
var checkSink atomic.Int64

// policy is the SPMD discovery discipline. With shard=false every rank
// walks the full graph width and dynamically classifies each task;
// with shard=true discovery is pruned to the owned block (sends are
// discovered from the owned side via reverse dependencies), which is
// exactly the paper's manual optimization.
type policy struct {
	shard bool
}

func (policy) Layout(app *core.App) exec.RankLayout { return exec.FlatLayout(app) }

func (p policy) Step(rc *exec.RankCtx, t int) {
	var checks int64
	for gi := 0; gi < rc.Graphs(); gi++ {
		if !rc.Active(gi, t) {
			continue
		}
		g := rc.Graph(gi)
		span := rc.Span(gi)

		// Task discovery. DTD walks the full active width; shard walks
		// only the owned window.
		lo, hi := g.OffsetAtTimestep(t), g.OffsetAtTimestep(t)+g.WidthAtTimestep(t)
		if p.shard {
			lo, hi = rc.Window(gi, t)
		}
		for i := lo; i < hi; i++ {
			if i < span.Lo || i >= span.Hi {
				// Dynamic check: would this remote task exchange data
				// with any column this rank owns? This scan is the
				// per-task cost that grows with graph width and rank
				// count. The interval iterator keeps the check itself
				// allocation-free — the overhead measured here is the
				// discovery walk, not benchmark-injected garbage.
				touches := false
				deps := g.PointDeps(t, i)
				for iv, ok := deps.NextSpan(); ok; iv, ok = deps.NextSpan() {
					if iv.First < span.Hi && iv.Last >= span.Lo {
						touches = true
						break
					}
				}
				if touches {
					checks++
				}
				continue
			}
			rc.SendOutputs(gi, t, i, rc.Run(gi, t, i))
		}
		rc.Flip(gi)
	}
	if checks != 0 {
		// Skipped entirely by shard (which performs no checks), and
		// kept off the timed path for check-free steps.
		checkSink.Add(checks)
	}
}
