package main

import (
	"fmt"
	"runtime"
	"time"

	"taskbench/internal/kernels"
	"taskbench/internal/metg"
)

const (
	// kernelProbeIters sizes one kernels.Execute call of the probe (~0.1 ms).
	kernelProbeIters = 2800
	// kernelProbeEvery is how many ladder points share one probe.
	kernelProbeEvery = 4
)

// kernelProbe measures the compute-bound kernel's cost per iteration —
// the paper's "calibrate peak empirically" rule — the way clock.sample
// measures the reference loop: the median of three ~0.1 ms calls.
func kernelProbe() float64 {
	cfg := kernels.Config{Type: kernels.ComputeBound, Iterations: kernelProbeIters}
	return medianOf3(func() float64 {
		start := time.Now()
		kernels.Execute(cfg, nil, 0)
		return float64(time.Since(start)) / kernelProbeIters
	})
}

// fleetDepth is how many jobs the fleet's throughput slice keeps
// outstanding on its one client connection.
const fleetDepth = 4

// series holds one quantity's per-sample values: wall-clock as
// measured, the bracket each was measured in, and (once the run has
// settled) ref-clock. A series observed on the workload's path
// (observePath) also says how many kernel iterations are inside every
// one of its samples.
type series struct {
	raw     []float64
	bracket []int32 // index into runner.brackets; -1 for a count
	onPath  bool
	work    float64
	ref     []float64
}

// runner measures one workload in rounds. Every ladder point, the
// zero-grain point, a slice of operating-grain jobs and a set-up sample
// are visited once per round, so a slow minute of the host lands on
// every quantity alike and each reported value is a median over the
// whole run, not over one phase of it.
type runner struct {
	w        *workload
	seed     uint64
	deadline time.Time
	tr       *tracer // nil on the untraced pass
	clk      clock

	series   map[string]*series
	brackets []factors    // one entry per bracket closed so far
	pending  []pendingObs // observed inside the open bracket, not yet filed

	attempted, failed int
	firstErr          error
	rounds            int
	jobs              int           // job ids for spans
	tracedWall        time.Duration // stopwatch total of traced jobs
}

type pendingObs struct {
	s *series
	v float64
}

func newRunner(w *workload, seed uint64, deadline time.Time, traced bool) *runner {
	r := &runner{w: w, seed: seed, deadline: deadline, series: map[string]*series{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// observe records a wall-clock value (nanoseconds, or nanoseconds per
// something) measured inside the open bracket: user-space work, priced
// on the multiply-add ruler.
func (r *runner) observe(name string, v float64) {
	r.pending = append(r.pending, pendingObs{r.seriesOf(name), v})
}

// observePath records wall-clock nanoseconds spent on the workload's
// path: a job of its graph with iters kernel iterations in every task,
// or (iters 0) a probe of the sockets the path runs over. The
// arithmetic inside is priced on the multiply-add ruler and the rest on
// the path's overhead ruler.
func (r *runner) observePath(name string, wall float64, iters int64) {
	s := r.seriesOf(name)
	s.onPath, s.work = true, float64(iters*r.w.tasks())
	r.pending = append(r.pending, pendingObs{s, wall})
}

// observeExact records a count, which no clock scales.
func (r *runner) observeExact(name string, v float64) {
	s := r.seriesOf(name)
	s.raw, s.bracket = append(s.raw, v), append(s.bracket, -1)
}

func (r *runner) seriesOf(name string) *series {
	s := r.series[name]
	if s == nil {
		s = &series{}
		r.series[name] = s
	}
	return s
}

// group runs fn between two reference samples and files what fn
// observed under the bracket's factors.
func (r *runner) group(fn func()) {
	by := r.clk.bracket(fn)
	r.brackets = append(r.brackets, by)
	for _, p := range r.pending {
		p.s.raw, p.s.bracket = append(p.s.raw, p.v), append(p.s.bracket, int32(len(r.brackets)-1))
	}
	r.pending = r.pending[:0]
	if r.tr != nil {
		r.tr.setScale(by)
	}
}

// settle converts every series to ref-clock once the rounds are over.
// The kernel's rate is arithmetic, so it goes by the multiply-add
// ruler; the run's median of it then says how much of each job was
// arithmetic, and the rest of the job goes by the path's overhead ruler
// (factors.refClock). On a workload without a loopback ruler the two
// are one and every value is wall x 17.4 / the loop's cost beside it.
func (r *runner) settle() {
	by := func(s *series, k int) factors {
		if s.bracket[k] < 0 {
			return factors{1, 1}
		}
		return r.brackets[s.bracket[k]]
	}
	kernel := r.seriesOf("kernels.ns_per_iter")
	kernel.ref = kernel.ref[:0]
	for k, v := range kernel.raw {
		kernel.ref = append(kernel.ref, v*by(kernel, k).compute)
	}
	rate := median(kernel.ref)
	for _, s := range r.series {
		if s == kernel {
			continue
		}
		s.ref = s.ref[:0]
		for k, v := range s.raw {
			f := by(s, k)
			if !s.onPath {
				f.overhead = f.compute
			}
			s.ref = append(s.ref, f.refClock(v, s.work*rate))
		}
	}
}

// slices runs step(0..n-1), bracketing consecutive steps with reference
// samples so that no bracket other than a single long step spans more
// than maxSlice.
func (r *runner) slices(n int, step func(k int)) {
	for k := 0; k < n; {
		r.group(func() {
			start := time.Now()
			for k < n {
				step(k)
				k++
				if time.Since(start) > maxSlice {
					break
				}
			}
		})
	}
}

// fail counts one failed operation and keeps the first error for the
// report.
func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runJob runs one job and counts it. Every job is an attempted
// operation; a validation error, a job error or a rejection is a
// failed one.
func (r *runner) runJob(t target, iters int64, tr *tracer) jobTimes {
	r.attempted++
	r.jobs++
	jt, err := t.job(iters, tr, r.jobs)
	if err != nil {
		r.fail(err)
	}
	if tr != nil {
		r.tracedWall += jt.wall
	}
	return jt
}

func ladderName(iters int64) string { return fmt.Sprintf("ladder.%d", iters) }

// visitTime is how long a round stays at one ladder point or at the
// zero-grain point: one job, and as many more as start within it. The
// short jobs at the bottom of a ladder are where METG is read off, and
// one 0.2 ms job a round left their medians with a fiftieth of the
// samples the latency slice has.
const visitTime = 1500 * time.Microsecond

// visit runs jobs at one grain for visitTime and observes each wall.
func (r *runner) visit(t target, name string, iters int64, tr *tracer) {
	start := time.Now()
	for {
		r.observePath(name, float64(r.runJob(t, iters, tr).wall), iters)
		if time.Since(start) >= visitTime {
			return
		}
	}
}

// start checks the workload's negative control, opens its path and
// warms it (untimed: pools fill, the fleet provisions its one shape).
func (r *runner) start() (target, error) {
	if err := r.w.negativeControl(r.seed); err != nil {
		return nil, err
	}
	t, err := r.w.open(r.w.params(r.seed, r.w.opGrain), r.tr != nil)
	if err != nil {
		return nil, err
	}
	for k := 0; k < 3; k++ {
		r.runJob(t, r.w.opGrain, nil)
		if r.tr != nil {
			r.runJob(t, r.w.opGrain, r.tr)
		}
	}
	if r.tr != nil {
		r.tr.reset()
		r.tracedWall = 0
	}
	if r.failed > 0 {
		t.close()
		return nil, fmt.Errorf("warm-up job failed: %w", r.firstErr)
	}
	runtime.GC()
	return t, nil
}

// loop runs rounds until the deadline. extra is the pass's own part of
// a round: the set-up sample, or the layer probes.
func (r *runner) loop(t target, extra func(round int)) {
	var longest time.Duration
	for r.rounds == 0 || time.Until(r.deadline) > longest {
		start := time.Now()
		r.round(t)
		extra(r.rounds)
		// The set-up sample and the probes leave garbage; collect it here
		// so the collector does not run inside someone else's timed job.
		runtime.GC()
		r.rounds++
		longest = max(longest, time.Since(start))
	}
}

// round is the part of a round both passes share.
func (r *runner) round(t target) {
	w := r.w
	// The kernel's rate is probed along the ladder, not once a round:
	// efficiency is a ratio to it, so its median needs about as many
	// samples as the walls it is set against have between them.
	ladder := w.ladder()
	r.slices(len(ladder), func(k int) {
		if k%kernelProbeEvery == 0 {
			r.observe("kernels.ns_per_iter", kernelProbe())
		}
		r.visit(t, ladderName(ladder[k]), ladder[k], r.tr)
	})

	// The zero-grain point. The traced pass runs it traced and untraced
	// for bench.trace_overhead; the two run on different plans, so each
	// goes twice and only the second, warm-cache, reading counts, and the
	// order alternates between rounds.
	r.group(func() {
		if r.tr == nil {
			r.visit(t, "zero", 0, nil)
			return
		}
		sides := [2]*tracer{r.tr, nil}
		if r.rounds%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for pass := 0; pass < 2; pass++ {
			for _, tr := range sides {
				wall := float64(r.runJob(t, 0, tr).wall)
				if pass == 0 {
					continue
				}
				if tr != nil {
					r.observePath("zero", wall, 0)
				} else {
					r.observePath("zero.untraced", wall, 0)
				}
			}
		}
	})

	// Latency: a slice of back-to-back jobs at the operating grain, one
	// outstanding. In process that is also the throughput.
	done := 0
	for done < w.sliceJobs {
		r.group(func() {
			start, first := time.Now(), done
			for done < w.sliceJobs && time.Since(start) < maxSlice {
				jt := r.runJob(t, w.opGrain, r.tr)
				r.observePath("op", float64(jt.wall), w.opGrain)
				if jt.fleetRun > 0 {
					r.observePath("op.fleet_run", float64(jt.fleetRun), w.opGrain)
				}
				done++
			}
			r.observePath("op.back_to_back", float64(time.Since(start))/float64(done-first), w.opGrain)
		})
	}
	if ft, ok := t.(*fleetTarget); ok {
		r.group(func() {
			wall, errs := ft.pipelined(w.sliceJobs, fleetDepth, w.opGrain)
			r.attempted += w.sliceJobs
			for _, err := range errs {
				r.fail(err)
			}
			r.observePath("op.pipelined", float64(wall)/float64(w.sliceJobs), w.opGrain)
		})
	}
}

// setupSample times nothing -> first job done on a fresh path of its
// own, then tears it down.
func (r *runner) setupSample() {
	var fresh target
	r.group(func() {
		start := time.Now()
		t, err := r.w.open(r.w.params(r.seed, r.w.opGrain), false)
		if err != nil {
			r.attempted++
			r.fail(fmt.Errorf("set-up: %w", err))
			return
		}
		fresh = t
		r.runJob(t, r.w.opGrain, nil)
		r.observePath("setup", float64(time.Since(start)), r.w.opGrain)
	})
	if fresh != nil {
		fresh.close()
	}
}

// med is the ref-clock median of a series, with its quartiles.
func (r *runner) med(name string) summary {
	if s := r.series[name]; s != nil {
		return summarize(s.ref)
	}
	return summary{}
}

// derived is a reported number that is not itself a median of samples:
// it has no quartiles to print.
func derived(v float64) summary { return summary{Median: v} }

func (r *runner) rawMed(name string) float64 {
	if s := r.series[name]; s != nil {
		return median(s.raw)
	}
	return 0
}

func scaled(v summary, f float64) summary {
	return summary{v.Q1 * f, v.Median * f, v.Q3 * f, v.N}
}

// metg50 extracts METG(50%) from the median ladder, ref-clock or
// wall-clock, in nanoseconds of granularity (job wall x 1 core /
// tasks). Efficiency at a grain is iterations x kernels.ns_per_iter x
// tasks / job wall, with the kernel's rate measured in the same rounds
// on the same clock.
func (r *runner) metg50(raw bool) (float64, metg.Kind) {
	pick := func(name string) float64 {
		if raw {
			return r.rawMed(name)
		}
		return r.med(name).Median
	}
	nsPerIter, tasks := pick("kernels.ns_per_iter"), float64(r.w.tasks())
	var gran, eff []float64
	for _, iters := range r.w.ladder() {
		wall := pick(ladderName(iters))
		gran = append(gran, wall/tasks)
		eff = append(eff, float64(iters)*nsPerIter*tasks/wall)
	}
	return isotonicMETG(gran, eff, 0.5)
}

// endToEnd computes the end-to-end metrics from an untraced run: every
// one a median over the run's samples of what the stopwatch read.
func (r *runner) endToEnd() (map[string]summary, error) {
	metgNS, kind := r.metg50(false)
	if !kind.Reached() {
		return nil, fmt.Errorf("METG(50%%) not reached: no ladder point attains 50%% efficiency")
	}
	tasks := float64(r.w.tasks())
	p50 := r.med("op")
	rate := "op.back_to_back"
	if r.w.path == pathFleet {
		rate = "op.pipelined"
	}
	perJob := r.med(rate)
	return map[string]summary{
		"metg50_us":        derived(metgNS / 1e3),
		"task_overhead_ns": scaled(r.med("zero"), 1/tasks),
		"eff_at_grain":     derived(float64(r.w.opGrain) * r.med("kernels.ns_per_iter").Median * tasks / p50.Median),
		"job_p50_ms":       scaled(p50, 1e-6),
		"jobs_per_s":       {1e9 / perJob.Q3, 1e9 / perJob.Median, 1e9 / perJob.Q1, perJob.N},
		"setup_s":          scaled(r.med("setup"), 1e-9),
		"peak_rss_mb":      derived(peakRSSMB()),
	}, nil
}
