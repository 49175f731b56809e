// Command taskbench runs one Task Bench configuration on one runtime
// backend, mirroring the reference implementation's driver:
//
//	taskbench -backend p2p -steps 1000 -width 4 -type stencil_1d \
//	    -kernel compute_bound -iter 2048 [-runs 3] [-and ...]
//
// Graph options follow the paper's Table 1 (see core.ParseArgs); the
// -and flag starts an additional concurrent task graph. Every task
// input is validated against the dependence relation unless
// -novalidate is given, so a run that completes is a correct run.
package main

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"runtime/pprof"
	"strconv"

	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/report"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "taskbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	backend := "p2p"
	runs := 1
	specPath := ""
	cpuProfile := ""
	memProfile := ""
	reportMode := report.Console
	var rest []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-report":
			if i+1 >= len(args) {
				return fmt.Errorf("-report requires console, json or none")
			}
			var err error
			if reportMode, err = report.ParseMode(args[i+1]); err != nil {
				return err
			}
			i++
		case "-cpuprofile":
			if i+1 >= len(args) {
				return fmt.Errorf("-cpuprofile requires a file path")
			}
			cpuProfile = args[i+1]
			i++
		case "-memprofile":
			if i+1 >= len(args) {
				return fmt.Errorf("-memprofile requires a file path")
			}
			memProfile = args[i+1]
			i++
		case "-spec":
			if i+1 >= len(args) {
				return fmt.Errorf("-spec requires a JSON file path")
			}
			specPath = args[i+1]
			i++
		case "-backend":
			if i+1 >= len(args) {
				return fmt.Errorf("-backend requires a value (one of %v)", runtime.Names())
			}
			backend = args[i+1]
			i++
		case "-runs":
			if i+1 >= len(args) {
				return fmt.Errorf("-runs requires a value")
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil || n < 1 {
				return fmt.Errorf("invalid -runs %q", args[i+1])
			}
			runs = n
			i++
		case "-help", "--help", "-h":
			usage()
			return nil
		default:
			rest = append(rest, args[i])
		}
	}

	var app *core.App
	var err error
	if specPath != "" {
		if len(rest) > 0 {
			return fmt.Errorf("-spec cannot be combined with graph flags %v", rest)
		}
		f, err := os.Open(specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err := wire.Decode(f)
		if err != nil {
			return err
		}
		if app, err = spec.ToApp(); err != nil {
			return err
		}
	} else if app, err = core.ParseArgs(rest); err != nil {
		return err
	}
	rt, err := runtime.New(backend)
	if err != nil {
		return err
	}

	if app.Verbose {
		cal := kernels.Calibrate()
		fmt.Printf("host calibration: %.2f GFLOP/s/core, %.2f GB/s/core, %d cores\n",
			cal.FlopsPerSecondPerCore/1e9, cal.BytesPerSecondPerCore/1e9, cal.Cores)
		fmt.Printf("app: %d graph(s), %d tasks, %d dependencies\n",
			len(app.Graphs), app.TotalTasks(), app.TotalDependencies())
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var best core.RunStats
	var all []core.RunStats
	var names []string
	for r := 0; r < runs; r++ {
		stats, err := rt.Run(app)
		if err != nil {
			return err
		}
		if r == 0 || stats.Elapsed < best.Elapsed {
			best = stats
		}
		all = append(all, stats)
		names = append(names, fmt.Sprintf("%s[%d]", backend, r))
		if app.Verbose {
			stats.WriteReport(os.Stdout, names[r])
		}
	}
	// The one-line summary is the classic contract — on stderr in json
	// mode, so stdout stays one parseable document; -report adds the
	// structured rendering (per-run table, machine-readable JSON).
	summary, title := os.Stdout, fmt.Sprintf("taskbench %s (%d runs, best reported)", backend, runs)
	if reportMode == report.JSON {
		summary, title = os.Stderr, fmt.Sprintf("taskbench %s", backend)
	}
	if reportMode == report.JSON || runs > 1 {
		if err := report.FromRuns(title, names, all).Write(os.Stdout, reportMode); err != nil {
			return err
		}
	}
	best.WriteReport(summary, backend)
	return writeMemProfile(memProfile)
}

// writeMemProfile snapshots the heap into path (no-op when empty), for
// chasing allocation regressions on the steady-state task path without
// editing code.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stdruntime.GC() // settle live-object counts before the snapshot
	return pprof.WriteHeapProfile(f)
}

func usage() {
	fmt.Printf(`taskbench — run a Task Bench configuration on a runtime backend

Backends: %v

Driver options:
  -backend NAME     runtime backend (default p2p)
  -runs N           repetitions; the best run is reported (default 1)
  -spec FILE        load the configuration from a JSON spec instead of flags
  -report MODE      console (per-run table when -runs > 1), json (machine-
                    readable report on stdout), none (one-line summary only)
  -cpuprofile FILE  write a pprof CPU profile of the runs
  -memprofile FILE  write a pprof heap profile after the runs

Graph options (Table 1 of the paper; repeat after -and for more graphs):
  -steps H        timesteps (default 4)
  -width W        parallel columns (default 4)
  -type T         trivial no_comm stencil_1d stencil_1d_periodic dom
                  tree fft all_to_all nearest spread random_nearest
  -radix K        dependencies per task (nearest/spread/random_nearest)
  -period P       dependence sets cycled (spread/random_nearest)
  -fraction F     edge density (random_nearest)
  -kernel K       empty busy_wait compute_bound memory_bound load_imbalance
  -iter N         kernel iterations per task
  -span BYTES     bytes per iteration (memory_bound)
  -wait DUR       busy_wait duration, e.g. 50us
  -imbalance F    imbalance factor in [0,1]
  -persistent     imbalance is per-column (persistent), not per-task
  -output BYTES   payload bytes per dependency
  -scratch BYTES  per-column working set
  -seed S         deterministic workload seed

Global options:
  -workers N      execution parallelism
  -nodes N        rank count for the hybrid backend
  -novalidate     skip input validation (ablation)
  -verbose        extra reporting
`, runtime.Names())
}
