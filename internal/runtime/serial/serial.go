// Package serial implements the sequential reference backend: tasks
// execute one at a time in timestep order. It is the simplest possible
// Task Bench implementation, the correctness baseline for every other
// backend, and the single-worker endpoint for overhead comparisons.
package serial

import (
	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
)

func init() {
	runtime.Register("serial", func() runtime.Runtime { return rt{} })
}

type rt struct{}

func (rt) Name() string { return "serial" }

func (rt) Info() runtime.Info {
	return runtime.Info{
		Name:        "serial",
		Analog:      "reference",
		Paradigm:    "sequential",
		Parallelism: "none",
		Distributed: false,
		Async:       false,
		Notes:       "correctness baseline; executes tasks in timestep order",
	}
}

func (rt) Run(app *core.App) (core.RunStats, error) {
	return exec.Measure(app, 1, func() error {
		for _, g := range app.Graphs {
			if err := runGraph(g, app.Validate); err != nil {
				return err
			}
		}
		return nil
	})
}

func runGraph(g *core.Graph, validate bool) error {
	rows := exec.NewRows(g.MaxWidth, g.OutputBytes)
	scratch := make([]*kernels.Scratch, g.MaxWidth)
	for i := range scratch {
		scratch[i] = kernels.NewScratch(g.ScratchBytes)
	}
	var inputs [][]byte
	for t := 0; t < g.Timesteps; t++ {
		off := g.OffsetAtTimestep(t)
		w := g.WidthAtTimestep(t)
		for i := off; i < off+w; i++ {
			inputs = inputs[:0]
			deps := g.PointDeps(t, i)
			for dep, ok := deps.Next(); ok; dep, ok = deps.Next() {
				inputs = append(inputs, rows.Prev(dep))
			}
			if err := g.ExecutePoint(t, i, rows.Cur(i), inputs, scratch[i], validate); err != nil {
				return err
			}
		}
		rows.Flip()
	}
	return nil
}
