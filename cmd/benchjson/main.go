// Command benchjson is the CI perf gate's converter and comparator. It
// turns `go test -bench` output into a JSON report mapping benchmark
// name → ns/op, B/op, allocs/op and any custom b.ReportMetric units:
//
//	go test -run '^$' -bench . -benchmem -benchtime 100ms ./... | tee gate.txt
//	benchjson -in gate.txt -out BENCH_GATE.json
//
// and -diff turns two such reports into a regression table —
// per-benchmark ns/op and allocs/op deltas, plus appearing/vanishing
// benchmarks:
//
//	benchjson -diff bench-prev/BENCH_GATE.json BENCH_GATE.json -gate 10
//
// With -gate the process exits nonzero if any benchmark present in both
// reports slowed by more than the given percentage of ns/op, or grew
// its allocs/op: at all where the baseline is 0 (the hot paths are
// zero-alloc by design, so any new allocation is a regression, not
// noise), by more than the same percentage elsewhere (a plan build's
// five-digit count moves with the run, not only with the code). Which
// benchmarks are gated is decided by what `go test -bench` ran — every
// Go benchmark in the module — not here. Measurement proper is bench/.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result holds the parsed metrics of one benchmark line.
type Result struct {
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are present only when the run used
	// -benchmem (or the benchmark called b.ReportAllocs).
	BPerOp      *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric units (tasks/s, ns/task, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string            `json:"go_version"`
	GoOS       string            `json:"goos"`
	GoArch     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	in := ""
	out := ""
	var diffPaths []string
	gate := -1.0 // percent; negative means no gate
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-in":
			if i+1 >= len(args) {
				return fmt.Errorf("-in requires a file path")
			}
			in = args[i+1]
			i++
		case "-out":
			if i+1 >= len(args) {
				return fmt.Errorf("-out requires a file path")
			}
			out = args[i+1]
			i++
		case "-diff":
			if i+2 >= len(args) {
				return fmt.Errorf("-diff requires two report paths (old.json new.json)")
			}
			diffPaths = []string{args[i+1], args[i+2]}
			i += 2
		case "-gate":
			if i+1 >= len(args) {
				return fmt.Errorf("-gate requires a percentage (e.g. -gate 10)")
			}
			pct, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil || pct <= 0 {
				return fmt.Errorf("-gate wants a positive percentage, got %q", args[i+1])
			}
			gate = pct
			i++
		default:
			return fmt.Errorf("unknown flag %q (usage: benchjson [-in bench.txt] [-out BENCH.json] | -diff old.json new.json [-gate pct])", args[i])
		}
	}
	if diffPaths != nil {
		return diff(os.Stdout, diffPaths[0], diffPaths[1], gate)
	}
	if gate >= 0 {
		return fmt.Errorf("-gate only applies to -diff")
	}

	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	report, err := parse(r)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// parse reads `go test -bench` output: each benchmark line is the name
// (with a -GOMAXPROCS suffix), the iteration count, then value/unit
// pairs ("123 ns/op", "45 B/op", "6 allocs/op", "7.8 tasks/s").
func parse(r io.Reader) (*Report, error) {
	report := &Report{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Benchmarks: map[string]Result{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. a "--- FAIL: BenchmarkX" line
		}
		res := Result{Iterations: iters}
		for k := 2; k+1 < len(fields); k += 2 {
			v, err := strconv.ParseFloat(fields[k], 64)
			if err != nil {
				break
			}
			switch unit := fields[k+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				b := v
				res.BPerOp = &b
			case "allocs/op":
				a := v
				res.AllocsPerOp = &a
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		report.Benchmarks[trimProcs(fields[0])] = res
	}
	return report, sc.Err()
}

// diff prints a per-benchmark regression table between two reports:
// ns/op delta (percent), allocs/op delta (absolute), and benchmarks
// present in only one report. With gatePct negative the exit
// status stays zero — the table is a trail; thresholds belong to
// whoever reads it. With gatePct set, the diff becomes a CI tripwire:
// a benchmark present in both reports that slowed by more than gatePct
// percent of ns/op, or whose allocs/op grew from 0 or by more than
// gatePct percent of a non-zero baseline, is an error.
// Appearing and vanishing benchmarks never trip the gate — renames and
// new coverage are not regressions.
func diff(w io.Writer, oldPath, newPath string, gatePct float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}

	names := map[string]bool{}
	for name := range oldRep.Benchmarks {
		names[name] = true
	}
	for name := range newRep.Benchmarks {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	var tripped []string
	fmt.Fprintf(w, "%-44s %14s %14s %9s %14s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	for _, name := range sorted {
		o, inOld := oldRep.Benchmarks[name]
		n, inNew := newRep.Benchmarks[name]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%-44s %14s %14.1f %9s %14s\n", name, "-", n.NsPerOp, "new", allocDelta(nil, n.AllocsPerOp))
		case !inNew:
			fmt.Fprintf(w, "%-44s %14.1f %14s %9s %14s\n", name, o.NsPerOp, "-", "gone", allocDelta(o.AllocsPerOp, nil))
		default:
			delta := "n/a"
			if o.NsPerOp > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp)
			}
			fmt.Fprintf(w, "%-44s %14.1f %14.1f %9s %14s\n", name, o.NsPerOp, n.NsPerOp, delta, allocDelta(o.AllocsPerOp, n.AllocsPerOp))
			if gatePct >= 0 {
				if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+gatePct/100) {
					tripped = append(tripped, fmt.Sprintf("%s: ns/op %+.1f%% exceeds +%.1f%%",
						name, 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp, gatePct))
				}
				if o.AllocsPerOp != nil && n.AllocsPerOp != nil && *n.AllocsPerOp > *o.AllocsPerOp*(1+gatePct/100) {
					tripped = append(tripped, fmt.Sprintf("%s: allocs/op %.0f → %.0f",
						name, *o.AllocsPerOp, *n.AllocsPerOp))
				}
			}
		}
	}
	if len(tripped) > 0 {
		for _, line := range tripped {
			fmt.Fprintf(w, "GATE: %s\n", line)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond the gate", len(tripped))
	}
	return nil
}

// allocDelta renders the allocs/op transition of one benchmark;
// reports without -benchmem have no allocation data.
func allocDelta(o, n *float64) string {
	switch {
	case o == nil && n == nil:
		return "-"
	case o == nil:
		return fmt.Sprintf("→ %.0f", *n)
	case n == nil:
		return fmt.Sprintf("%.0f →", *o)
	case *o == *n:
		return fmt.Sprintf("%.0f", *o)
	default:
		return fmt.Sprintf("%.0f → %.0f", *o, *n)
	}
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &rep, nil
}

// trimProcs drops the trailing -GOMAXPROCS suffix go test appends to
// benchmark names, so names stay stable across machine shapes.
func trimProcs(name string) string {
	k := strings.LastIndexByte(name, '-')
	if k < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[k+1:]); err != nil {
		return name
	}
	return name[:k]
}
