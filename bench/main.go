// Command bench is this repository's benchmark: one process, on one P,
// measures one workload end to end (METG(50%), task overhead, job
// latency and throughput, set-up time, memory) or, on a traced pass,
// layer by layer, timing every layer from outside through its public
// functions and dividing every timing by a reference loop run right
// beside it. README.md has the rules and how to read a run.
//
//	bash bench/run.sh --workload dag_stencil --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh -list
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// outDir is where a run leaves its span file, inside the checkout and
// beside the build output.
const outDir = ".bench_build/bench"

func main() {
	began := time.Now()
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Uint64("seed", 1, "seed of the generated task graphs")
		seconds   = flag.Float64("seconds", runSeconds, "how long the run may take, set-up included")
		trace     = flag.String("trace", "0", "0: untraced pass, end-to-end metrics; 1 or a file name: traced pass, per-layer metrics and a span file")
		list      = flag.Bool("list", false, "print the workloads and the metric table")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
		baseline  = flag.String("baseline", "", "with -selfcheck: also write the result to this file")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as the metric table defines it")
	)
	flag.Parse()
	switch {
	case *list:
		printList()
	case *manifest:
		fmt.Println(string(manifestJSON()))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *baseline))
	default:
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			os.Exit(2)
		}
		spanFile := *trace
		if spanFile == "1" {
			spanFile = filepath.Join(outDir, "spans-"+w.Name+".json")
		}
		deadline := began.Add(time.Duration(*seconds * float64(time.Second)))
		os.Exit(runWorkload(w, *seed, deadline, spanFile))
	}
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced pass; bound = relative worsening that counts as a regression):")
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %-6s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Note)
	}
	fmt.Println("per-layer metrics (traced pass):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %-6s %-6s %s\n", m.Name, m.Unit, m.Better, m.Note)
	}
}

// runSeconds is how long one run measures, as BENCHMARK.json states it.
const runSeconds = 30

// manifestJSON renders BENCHMARK.json from the workload and metric
// tables.
func manifestJSON() []byte {
	type entry map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, entry{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, entry{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return out
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSummary describes a run, on the line before its result.
type runSummary struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Traced       bool    `json:"traced"`
	Rounds       int     `json:"rounds"`
	RefNominalNS float64 `json:"ref_nominal_ns"`
	// LoopNominalNS is 0 when the workload has no loopback ruler.
	LoopNominalNS float64 `json:"loop_nominal_ns"`
	// Claim is always null: this benchmark defines numbers, it compares
	// none against a parent commit.
	Claim any `json:"claim"`
}

// runWorkload measures one workload on one pass and prints the metric
// table and the result line. Any incorrect output — a failed negative
// control, a failed job, a wrong count — withholds the metric lines and
// exits non-zero.
func runWorkload(w *workload, seed uint64, deadline time.Time, spanFile string) int {
	// One P: both workers, every rank and the whole fleet share a core.
	runtime.GOMAXPROCS(1)
	traced := spanFile != "0"
	reserve := reportReserve
	if traced {
		reserve = tracedReportReserve
	}
	r := newRunner(w, seed, deadline.Add(-reserve), traced)
	table := endToEnd
	if traced {
		table = perLayer
	}
	values, err := r.run()
	if err == nil && traced {
		err = r.writeSpans(spanFile)
	}
	fmt.Printf("workload %s  seed %d  trace %v  rounds %d  attempted %d  failed %d\n",
		w.Name, seed, traced, r.rounds, r.attempted, r.failed)
	ref := summarize(r.clk.samples)
	fmt.Printf("host: reference loop %.2f ns/iter wall-clock (q1 %.2f, q3 %.2f, nominal %.1f); kernel %.2f ns/iter ref-clock\n",
		ref.Median, ref.Q1, ref.Q3, refNominalNS, r.med("kernels.ns_per_iter").Median)
	if loop := summarize(r.clk.loopSamples); loop.N > 0 {
		fmt.Printf("host: loopback round trip %.0f ns wall-clock (q1 %.0f, q3 %.0f, nominal %d)\n",
			loop.Median, loop.Q1, loop.Q3, loopNominalNS)
	}
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed, first: %w", r.failed, r.attempted, r.firstErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonValue{}}
	for _, m := range table {
		v := values[m.Name]
		spread := ""
		if v.N > 0 {
			spread = fmt.Sprintf("  q1 %s  q3 %s  n %d", fmtValue(v.Q1), fmtValue(v.Q3), v.N)
		}
		fmt.Printf("%-36s %14s %-6s%s\n", m.Name, fmtValue(v.Median), m.Unit, spread)
		res.Metrics[m.Name] = jsonValue{v.Median, m.Unit}
	}
	// The result line has a closed set of keys, so what else a reader of
	// the numbers needs goes on a line of its own before it: the constant
	// every time was scaled to, and that no number here is a claim.
	about := runSummary{Workload: w.Name, Seed: seed, Traced: traced, Rounds: r.rounds, RefNominalNS: refNominalNS}
	if w.loopRuler {
		about.LoopNominalNS = loopNominalNS
	}
	aboutLine, err := json.Marshal(about)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", aboutLine, line)
	return 0
}

// reportReserve is kept back from the deadline for tear-down and the
// report; the traced pass also counts mesh traffic and writes its spans.
const (
	reportReserve       = 300 * time.Millisecond
	tracedReportReserve = 1200 * time.Millisecond
)

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// run is one whole pass: negative control, open, warm up, rounds, and
// the pass's metrics.
func (r *runner) run() (map[string]summary, error) {
	if r.w.loopRuler {
		loop, err := newLoopback()
		if err != nil {
			return nil, fmt.Errorf("loopback ruler: %w", err)
		}
		defer loop.close()
		r.clk.loop = loop
	}
	t, err := r.start()
	if err != nil {
		return nil, err
	}
	defer t.close()
	if r.tr == nil {
		r.loop(t, func(int) { r.setupSample() })
		r.settle()
		return r.endToEnd()
	}
	p, err := newProbes(r, t)
	if err != nil {
		return nil, err
	}
	defer p.close()
	r.loop(t, func(round int) { p.run(t, round) })
	r.settle()
	return p.perLayer(t)
}

// writeSpans finishes the trace, checks that the job spans account for
// the stopwatch's job wall, and writes the span file.
func (r *runner) writeSpans(path string) error {
	r.tr.finish()
	if cover := r.tr.jobCoverage(r.tracedWall); cover < 0.95 || cover > 1.05 {
		return fmt.Errorf("job spans cover %.3f of the job wall, want within 5%%", cover)
	}
	return r.tr.write(path, map[string]any{
		"workload": r.w.Name, "seed": r.seed, "rounds": r.rounds,
		"ref_nominal_ns": refNominalNS, "unit": "ns since run start; multiply durations by scale for ref-clock",
	})
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// heapLiveMB is the live heap after a collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostFingerprint says where a baseline was measured.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fp := map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		fp["module"] = bi.Main.Path
	}
	return fp
}
