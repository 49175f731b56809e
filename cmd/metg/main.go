// Command metg measures minimum effective task granularity (paper §4)
// for a real runtime backend on this host, for a live multi-process
// cluster fleet, or for a simulated system profile on a simulated
// cluster:
//
//	metg -backend p2p                         # real, this host
//	metg -cluster host:7580 -nodes 6          # real, a taskbenchd fleet
//	metg -profile "mpi p2p" -nodes 64         # simulated Cori
//
// It prints the efficiency-vs-granularity curve (the data behind
// Figures 3 and 7) followed by the METG(50%) value.
package main

import (
	"flag"
	"fmt"
	"os"
	stdruntime "runtime"
	"runtime/pprof"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/metg"
	"taskbench/internal/report"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/sim"
	"taskbench/internal/wire"
)

// main delegates to run so that deferred profile writers flush before
// the process exits with a status code.
func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		backend    = flag.String("backend", "", "real runtime backend to measure")
		clusterAt  = flag.String("cluster", "", "coordinator address of a live taskbenchd fleet to measure")
		profile    = flag.String("profile", "", "simulator profile to measure (e.g. \"mpi p2p\")")
		nodes      = flag.Int("nodes", 1, "simulated node count (with -profile); total rank count (with -cluster, <=1 = one rank per worker)")
		steps      = flag.Int("steps", 20, "graph height")
		width      = flag.Int("width", 0, "graph width (0 = one column per worker / core)")
		pattern    = flag.String("type", "stencil_1d", "dependence pattern")
		radix      = flag.Int("radix", 0, "dependencies per task (nearest/spread)")
		threshold  = flag.Float64("threshold", 0.5, "efficiency threshold")
		maxIters   = flag.Int64("maxiters", 0, "top of the problem-size sweep (0 = auto)")
		density    = flag.Int("density", 2, "sweep points per doubling")
		reportMode = flag.String("report", "console", "sweep rendering: console (aligned table), json (machine-readable report), none (METG line only)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile after the sweep")
	)
	flag.Parse()
	mode, err := report.ParseMode(*reportMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metg:", err)
		return 2
	}

	modes := 0
	for _, set := range []bool{*backend != "", *clusterAt != "", *profile != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "metg: specify exactly one of -backend, -cluster or -profile")
		fmt.Fprintln(os.Stderr, "backends:", runtime.Names())
		return 2
	}

	dep, err := core.ParseDependenceType(*pattern)
	if err != nil {
		return fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// The named return lets the deferred writer escalate a profile
		// failure into a nonzero exit even after a successful sweep.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fatal(err)
				return
			}
			defer f.Close()
			stdruntime.GC() // settle live-object counts before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fatal(err)
			}
		}()
	}

	var runner metg.Runner
	var peak float64
	top := *maxIters

	if *backend != "" {
		rt, err := runtime.New(*backend)
		if err != nil {
			return fatal(err)
		}
		w := *width
		if w == 0 {
			w = 4
		}
		// Engine-backed backends reuse one plan across the whole
		// sweep: shared-memory ones Reset an exec.Plan per point,
		// rank-based ones Reset an exec.RankPlan (spans, cross-rank
		// edges, fabric wiring) per point.
		sweep, done := metg.BackendSweep(rt, func(iterations int64) *core.Graph {
			return core.MustNew(core.Params{
				Timesteps: *steps, MaxWidth: w, Dependence: dep, Radix: *radix,
				Kernel: kernels.Config{Type: kernels.ComputeBound, Iterations: iterations},
			})
		})
		defer done()
		runner = func(iterations int64) core.RunStats {
			st, err := sweep(iterations)
			if err != nil {
				die(err)
			}
			return st
		}
		cal := kernels.Calibrate()
		peak = cal.FlopsPerSecondPerCore * float64(runner(1).Workers)
		if top == 0 {
			top = 1 << 16
		}
	} else if *clusterAt != "" {
		cli, err := cluster.Dial(*clusterAt)
		if err != nil {
			return fatal(err)
		}
		defer cli.Close()
		// In cluster mode -nodes is the total rank count across the
		// fleet. Only an *unset* -nodes defers to the coordinator's
		// default of one rank per registered worker — an explicit
		// `-nodes 1` means a genuine 1-rank measurement.
		ranks, nodesSet := 0, false
		flag.Visit(func(f *flag.Flag) { nodesSet = nodesSet || f.Name == "nodes" })
		if nodesSet {
			if *nodes < 1 {
				fmt.Fprintln(os.Stderr, "metg: -nodes must be at least 1")
				return 2
			}
			ranks = *nodes
		}
		w := *width
		if w == 0 {
			if ranks == 0 {
				// The fleet size (and so the defaulted rank count) is
				// unknown client-side; a fixed default width would
				// strand ranks on larger fleets and silently cap
				// measurable efficiency below the threshold.
				fmt.Fprintln(os.Stderr, "metg: -cluster needs -nodes (total ranks) or an explicit -width")
				return 2
			}
			w = 4 * ranks
		}
		// Every point of the sweep shares one graph shape, so the
		// coordinator reuses a single prepared configuration (plans,
		// payload rows, live mesh) and only the kernel size travels.
		runner = func(iterations int64) core.RunStats {
			st, err := cli.Run(wire.AppSpec{
				Workers: ranks,
				Graphs: []wire.GraphSpec{{
					Steps: *steps, Width: w, Type: dep.String(), Radix: *radix,
					KernelSpec: wire.KernelSpec{Kernel: kernels.ComputeBound.String(), Iterations: iterations},
				}},
			})
			if err != nil {
				die(err)
			}
			return st
		}
		// Peak is calibrated locally and scaled by the fleet's rank
		// count — exact when the fleet shares this host's core type,
		// an approximation otherwise (as with any cross-machine peak).
		cal := kernels.Calibrate()
		peak = cal.FlopsPerSecondPerCore * float64(runner(1).Workers)
		if top == 0 {
			top = 1 << 16
		}
	} else {
		p, err := sim.ProfileByName(*profile)
		if err != nil {
			return fatal(err)
		}
		m := sim.Cori(*nodes)
		wpn := 32
		if *width > 0 {
			wpn = *width / *nodes
		}
		w := sim.Workload{Dependence: dep, Radix: *radix, Steps: *steps, WidthPerNode: wpn}
		runner = metg.Runner(w.Runner(m, p))
		peak = m.PeakFlops()
		if top == 0 {
			top = 1 << 31
		}
	}

	value, points, kind := metg.Search(runner, top, peak, 0, *threshold, *density)
	title := "metg sweep"
	switch {
	case *backend != "":
		title += " (backend " + *backend + ")"
	case *clusterAt != "":
		title += " (cluster " + *clusterAt + ")"
	default:
		title += " (profile " + *profile + ")"
	}
	if err := report.FromMETG(title, points, value, kind, *threshold).Write(os.Stdout, mode); err != nil {
		return fatal(err)
	}
	// The METG line is the headline contract scripts grep for; it
	// prints in every mode, after whichever rendering was chosen — to
	// stderr in json mode, so stdout stays one parseable document.
	headline := os.Stdout
	if mode == report.JSON {
		headline = os.Stderr
	}
	switch kind {
	case metg.Measured:
		fmt.Fprintf(headline, "METG(%.0f%%) = %v\n", *threshold*100, value.Round(time.Nanosecond))
	case metg.UpperBound:
		// Every measured point stayed above the threshold, so the
		// smallest observed granularity only bounds METG from above.
		fmt.Fprintf(headline, "METG(%.0f%%) ≤ %v (upper bound: curve never dropped below threshold)\n",
			*threshold*100, value.Round(time.Nanosecond))
	default:
		fmt.Fprintf(headline, "METG(%.0f%%): never reached\n", *threshold*100)
		return 1
	}
	return 0
}

// fatal reports an error and returns the exit code for run, letting
// deferred profile writers flush on the way out.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "metg:", err)
	return 1
}

// die aborts from inside a sweep callback, where no error return path
// exists. The CPU profile is stopped first so a partial profile is
// still readable.
func die(err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "metg:", err)
	os.Exit(1)
}
