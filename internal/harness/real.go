package harness

import (
	"fmt"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/metg"
	"taskbench/internal/runtime"
	"taskbench/internal/stats"
)

// RealConfig shapes the real-execution sweeps (Figures 2, 3, 6, 7, 8
// measured on this host's goroutine backends rather than the
// simulator). Defaults keep a full sweep under a minute on one core.
type RealConfig struct {
	// Backends to measure; nil means every registered backend.
	Backends []string
	// Steps and Width shape the graph; Width 0 means one column per
	// available worker.
	Steps, Width int
	// MaxIters is the top of the problem-size sweep.
	MaxIters int64
	// PerDoubling is the sweep resolution.
	PerDoubling int
}

// DefaultRealConfig returns the standard host-scale configuration.
func DefaultRealConfig() RealConfig {
	return RealConfig{Steps: 30, Width: 4, MaxIters: 1 << 15, PerDoubling: 1}
}

func (c RealConfig) backends() []string {
	if c.Backends != nil {
		return c.Backends
	}
	return runtime.Names()
}

// realRunner adapts a backend to the METG sweep for the stencil
// workload of Figures 2/3/6/7. Engine-backed backends reuse one
// Session — the plan is built once per configuration and Reset per
// point — so the sweep measures scheduling, not DAG reconstruction.
func realRunner(name string, cfg RealConfig) (metg.Runner, func(), error) {
	rt, err := runtime.New(name)
	if err != nil {
		return nil, nil, err
	}
	sweep, done := metg.BackendSweep(rt, func(iterations int64) *core.Graph {
		return core.MustNew(core.Params{
			Timesteps:  cfg.Steps,
			MaxWidth:   cfg.Width,
			Dependence: core.Stencil1D,
			Kernel:     kernels.Config{Type: kernels.ComputeBound, Iterations: iterations},
		})
	})
	return func(iterations int64) core.RunStats {
		st, err := sweep(iterations)
		if err != nil {
			panic(fmt.Sprintf("harness: %s failed: %v", name, err))
		}
		return st
	}, done, nil
}

// Fig6FlopsVsProblemSize measures Figure 6 (of which Figure 2 is the
// MPI-only subset) on the real backends: achieved FLOP/s against
// problem size for the stencil pattern on this host.
func Fig6FlopsVsProblemSize(cfg RealConfig) (*Figure, error) {
	fig := &Figure{
		ID: "fig6", Title: "FLOP/s vs problem size (stencil, real backends)",
		XLabel: "iterations per task", YLabel: "GFLOP/s", LogX: true,
	}
	iters := stats.GeomIters(cfg.MaxIters, 1, cfg.PerDoubling)
	for _, name := range cfg.backends() {
		run, done, err := realRunner(name, cfg)
		if err != nil {
			return nil, err
		}
		s := Series{Label: name}
		for _, it := range iters {
			st := run(it)
			s.X = append(s.X, float64(it))
			s.Y = append(s.Y, st.FlopsPerSecond()/1e9)
		}
		done()
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig7EfficiencyCurve measures Figure 7 (Figure 3 is the MPI subset):
// the same sweep replotted as efficiency vs task granularity against
// the host's calibrated peak.
func Fig7EfficiencyCurve(cfg RealConfig) (*Figure, error) {
	fig := &Figure{
		ID: "fig7", Title: "efficiency vs task granularity (stencil, real backends)",
		XLabel: "task granularity (ms)", YLabel: "efficiency", LogX: true,
	}
	cal := kernels.Calibrate()
	iters := stats.GeomIters(cfg.MaxIters, 1, cfg.PerDoubling)
	for _, name := range cfg.backends() {
		run, done, err := realRunner(name, cfg)
		if err != nil {
			return nil, err
		}
		var workers int
		points := metg.Curve(func(it int64) core.RunStats {
			st := run(it)
			workers = st.Workers
			return st
		}, iters, 0, 0) // efficiency filled below with per-run peaks
		done()
		s := Series{Label: name}
		for _, pt := range points {
			if pt.Granularity <= 0 {
				continue
			}
			peak := cal.FlopsPerSecondPerCore * float64(workers)
			s.X = append(s.X, pt.Granularity.Seconds()*1e3)
			s.Y = append(s.Y, pt.Stats.FlopsPerSecond()/peak)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig8MemoryBandwidth measures Figure 8: achieved B/s against problem
// size with the memory-bound kernel at a constant working set.
func Fig8MemoryBandwidth(cfg RealConfig) (*Figure, error) {
	fig := &Figure{
		ID: "fig8", Title: "B/s vs problem size (memory kernel, real backends)",
		XLabel: "iterations per task", YLabel: "GB/s", LogX: true,
	}
	iters := stats.GeomIters(min(cfg.MaxIters, 1<<10), 1, cfg.PerDoubling)
	mkGraph := func(it int64) *core.Graph {
		return core.MustNew(core.Params{
			Timesteps:  cfg.Steps,
			MaxWidth:   cfg.Width,
			Dependence: core.Stencil1D,
			Kernel: kernels.Config{
				Type: kernels.MemoryBound, Iterations: it, SpanBytes: 1 << 14,
			},
			ScratchBytes: 4 << 20, // constant per-column working set
		})
	}
	for _, name := range cfg.backends() {
		rt, err := runtime.New(name)
		if err != nil {
			return nil, err
		}
		// Engine-backed backends amortize one plan (and its 4 MiB
		// per-column scratch allocations) across the whole sweep.
		run, done := metg.BackendSweep(rt, mkGraph)
		s := Series{Label: name}
		for _, it := range iters {
			st, err := run(it)
			if err != nil {
				done()
				return nil, fmt.Errorf("harness: %s: %w", name, err)
			}
			s.X = append(s.X, float64(it))
			s.Y = append(s.Y, st.BytesPerSecond()/1e9)
		}
		done()
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// RealMETGRow is one backend's measured METG on this host. Kind
// distinguishes a true threshold crossing from the upper bound
// reported when the backend's curve never dips below the threshold.
type RealMETGRow struct {
	Backend string
	METG    time.Duration
	Kind    metg.Kind
}

// RealMETG measures METG(50%) for each backend on this host with the
// stencil workload — the host-scale analog of one point of Figure 9a.
func RealMETG(cfg RealConfig) ([]RealMETGRow, error) {
	cal := kernels.Calibrate()
	var rows []RealMETGRow
	for _, name := range cfg.backends() {
		run, done, err := realRunner(name, cfg)
		if err != nil {
			return nil, err
		}
		// Peak must use the worker count the backend actually uses.
		probe := run(1)
		peak := cal.FlopsPerSecondPerCore * float64(probe.Workers)
		m, _, kind := metg.Search(run, cfg.MaxIters, peak, 0, 0.5, cfg.PerDoubling)
		done()
		rows = append(rows, RealMETGRow{Backend: name, METG: m, Kind: kind})
	}
	return rows, nil
}

// RealMETGTable renders RealMETG results as markdown, reporting
// measured crossings plainly and bound-only results as "≤ value".
func RealMETGTable(rows []RealMETGRow) string {
	var cells [][]string
	for _, r := range rows {
		var v string
		switch r.Kind {
		case metg.Measured:
			v = r.METG.Round(100 * time.Nanosecond).String()
		case metg.UpperBound:
			v = "≤ " + r.METG.Round(100*time.Nanosecond).String() + " (upper bound)"
		default:
			v = "above threshold not reached"
		}
		cells = append(cells, []string{r.Backend, v})
	}
	return Markdown([]string{"Backend", "METG(50%) on this host"}, cells)
}
