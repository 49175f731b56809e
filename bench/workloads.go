package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/runtime"
	_ "taskbench/internal/runtime/all"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/wire"
)

// parallelism is the worker / rank count of every workload. The
// process runs on one P, so both workers share a core: every queue,
// fabric edge, socket and control frame is exercised, and no gated
// number depends on the host's second vCPU being there.
const parallelism = 2

type pathKind int

const (
	pathLocal pathKind = iota // exec.NewSession or exec.NewRankSession, by backend
	pathFleet                 // cluster.Start + workers + cluster.Dial
)

// workload is one task graph driven through one path of the system.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	path    pathKind
	backend string // registry name of the policy (session and rank paths)
	dep     core.DependenceType
	radix   int
	width   int
	steps   int
	output  int // payload bytes per task

	// loopRuler: the path's overhead is kernel crossings on loopback
	// sockets, so it is priced on the loopback ruler (clock.go), not on
	// the multiply-add loop.
	loopRuler bool

	opGrain  int64 // kernel iterations of the latency / throughput jobs
	topGrain int64 // top of the METG ladder
	// sliceJobs is how many operating-grain jobs a round runs; sized so
	// a 30 s run makes >= 60 rounds.
	sliceJobs int
}

var workloads = []*workload{
	{
		Name: "dag_stencil",
		Why:  "exec.Engine pop/push, Plan.Execute and Plan.Reset do nearly all the work; fabric, tcp, wire and cluster do none",
		path: pathLocal, backend: "taskpool",
		dep: core.Stencil1D, width: 8, steps: 250, output: 16,
		opGrain: 64, topGrain: 1024, sliceJobs: 17,
	},
	{
		Name: "rank_spread",
		Why:  "five mostly cross-rank inputs per task: Fabric Send/Recv/Recycle, RunInto gathering, PointDeps and five checkInput headers per task dominate; count-bound",
		path: pathLocal, backend: "p2p",
		dep: core.Spread, radix: 5, width: 8, steps: 250, output: 64,
		opGrain: 64, topGrain: 1024, sliceJobs: 17,
	},
	{
		Name: "tcp_payload",
		Why:  "the same rank engine over the loopback mesh with 4 KiB outputs: WriteOutput/checkInput fill and batch frames carry bytes, not counts; byte-bound",
		path: pathLocal, backend: "tcp",
		dep: core.Nearest, radix: 3, width: 8, steps: 125, output: 4096,
		opGrain: 256, topGrain: 2048, sliceJobs: 12,
	},
	{
		Name: "fleet_small_jobs",
		Why:  "80-task jobs through coordinator + 2 workers + client: admission, wire codec, run fan-out and result gather dominate; the only place cold provisioning is gated",
		path: pathFleet, backend: "p2p", // what cluster workers run; the negative control uses it
		dep: core.Stencil1D, width: 4, steps: 20, output: 16, loopRuler: true,
		opGrain: 64, topGrain: 2048, sliceJobs: 40,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (w *workload) tasks() int64 { return int64(w.steps * w.width) }

// params generates the workload's graph from the seed. The program
// under test receives only these.
func (w *workload) params(seed uint64, iters int64) core.Params {
	return core.Params{
		Timesteps: w.steps, MaxWidth: w.width, Dependence: w.dep, Radix: w.radix,
		Seed:        seed,
		Kernel:      kernels.Config{Type: kernels.ComputeBound, Iterations: iters},
		OutputBytes: w.output,
	}
}

// app builds the workload's graph as an App with validation on and the
// worker count set explicitly.
func (w *workload) app(p core.Params) (*core.App, error) {
	g, err := core.New(p)
	if err != nil {
		return nil, err
	}
	app := core.NewApp(g)
	app.Workers = parallelism
	return app, nil
}

// ladder is the METG sweep: two points per doubling from topGrain down
// to 1. It is the bench's own (not stats.GeomIters) so the measured
// points cannot move with the program.
func (w *workload) ladder() []int64 {
	var out []int64
	for k := 0; ; k++ {
		n := int64(math.Round(float64(w.topGrain) * math.Pow(2, -float64(k)/2)))
		if n < 1 {
			return out
		}
		if len(out) == 0 || n != out[len(out)-1] {
			out = append(out, n)
		}
	}
}

// referenceDeps counts the graph's edges through the uncompiled
// reference relation, so the check on RunStats.Dependencies does not
// compare the compiled table with itself.
func referenceDeps(g *core.Graph) int64 {
	var n int64
	for t := 1; t < g.Timesteps; t++ {
		for i := 0; i < g.MaxWidth; i++ {
			n += int64(g.DependenciesForPoint(t, i).Count())
		}
	}
	return n
}

// jobTimes is what one job cost. wall is the bench's stopwatch around
// the one public call (Session.Run, RankSession.Run, Client.Submit);
// fleetRun is JobResult.Elapsed, the workers' own view of a fleet job.
type jobTimes struct {
	wall, fleetRun time.Duration
}

// target is a workload's path, built and ready to run jobs.
type target interface {
	// job runs the graph once at the given grain and checks the result.
	// With a tracer it records job -> reset/run (in process) or job ->
	// submit/wait (fleet) spans.
	job(iters int64, tr *tracer, id int) (jobTimes, error)
	close()
}

// open builds the workload's path from nothing. traced also builds the
// bare plan + engine pair a traced in-process job runs on.
func (w *workload) open(p core.Params, traced bool) (target, error) {
	app, err := w.app(p)
	if err != nil {
		return nil, err
	}
	if w.path == pathFleet {
		return openFleet(wire.FromApp(app))
	}
	rt, err := runtime.New(w.backend)
	if err != nil {
		return nil, err
	}
	t := &localTarget{app: app, check: jobCheck{tasks: w.tasks(), deps: referenceDeps(app.Graphs[0])}}
	switch b := rt.(type) {
	case runtime.PolicyBacked:
		t.session = exec.NewSession(app, b.Policy())
		if traced {
			plan := exec.BuildPlan(app)
			t.reset, t.run = plan.Reset, exec.NewEngine(plan, b.Policy(), exec.WorkersFor(app)).Run
		}
	case runtime.RankBacked:
		sess, err := exec.NewRankSession(app, b.RankPolicy())
		if err != nil {
			return nil, err
		}
		t.session, t.closers = sess, append(t.closers, sess.Close)
		if traced {
			policy := b.RankPolicy()
			layout := policy.Layout(app)
			plan := exec.BuildRankPlan(app, layout.Ranks)
			engine, err := exec.NewRankEngine(plan, policy, layout.Threads)
			if err != nil {
				t.close()
				return nil, err
			}
			t.reset, t.run, t.closers = plan.Reset, engine.Run, append(t.closers, engine.Close)
		}
	default:
		return nil, fmt.Errorf("backend %s is neither policy- nor rank-backed", w.backend)
	}
	return t, nil
}

// jobCheck holds what every job's statistics must say.
type jobCheck struct{ tasks, deps int64 }

func (c jobCheck) verify(st core.RunStats, err error) error {
	switch {
	case err != nil:
		return err
	case st.Tasks != c.tasks:
		return fmt.Errorf("job ran %d tasks, want %d", st.Tasks, c.tasks)
	case st.Dependencies != c.deps:
		return fmt.Errorf("job satisfied %d dependencies, want %d", st.Dependencies, c.deps)
	case st.Workers != parallelism:
		return fmt.Errorf("job ran on %d workers, want %d", st.Workers, parallelism)
	}
	return nil
}

// localTarget is an in-process session: exec.Session or
// exec.RankSession, which differ only in how they are built.
type localTarget struct {
	app     *core.App
	check   jobCheck
	session interface {
		Run() (core.RunStats, error)
	}
	// reset and run are the two halves of session.Run on a bare plan +
	// engine of the bench's own, so a traced job can put a span around
	// each.
	reset   func()
	run     func(validate bool) error
	closers []func()
}

func (t *localTarget) job(iters int64, tr *tracer, id int) (jobTimes, error) {
	t.app.Graphs[0].Kernel.Iterations = iters
	if tr == nil {
		start := time.Now()
		st, err := t.session.Run()
		return jobTimes{wall: time.Since(start)}, t.check.verify(st, err)
	}
	// The stopwatch is the bench's own here too, outside the spans, so
	// the spans can be checked against it.
	var err error
	start := time.Now()
	tr.do("job", id, func() {
		tr.do("reset", id, t.reset)
		tr.do("run", id, func() { err = t.run(t.app.Validate) })
	})
	return jobTimes{wall: time.Since(start)}, err
}

func (t *localTarget) close() {
	for _, c := range t.closers {
		c()
	}
}

// fleetTarget is an in-process fleet: one coordinator, two workers and
// one client, all over loopback sockets.
type fleetTarget struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	exited  chan error // one receive per worker: Run has returned
	cli     *cluster.Client
	spec    wire.AppSpec
	// submitted counts jobs sent, to set against the coordinator's own
	// counters.
	submitted int
}

func openFleet(spec wire.AppSpec) (*fleetTarget, error) {
	coord, err := cluster.Start(cluster.Options{})
	if err != nil {
		return nil, err
	}
	t := &fleetTarget{coord: coord, spec: spec, exited: make(chan error, parallelism)}
	for k := 0; k < parallelism; k++ {
		wk := cluster.NewWorker(cluster.WorkerOptions{Coordinator: coord.Addr()})
		t.workers = append(t.workers, wk)
		go func() { t.exited <- wk.Run() }()
	}
	if _, err := coord.WaitWorkers(parallelism, 10*time.Second); err != nil {
		t.close()
		return nil, err
	}
	if t.cli, err = cluster.Dial(coord.Addr()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *fleetTarget) job(iters int64, tr *tracer, id int) (jobTimes, error) {
	t.spec.Graphs[0].Iterations = iters
	return t.submit(t.spec, tr, id)
}

// submit runs one job of any shape through the client.
func (t *fleetTarget) submit(spec wire.AppSpec, tr *tracer, id int) (jobTimes, error) {
	var jt jobTimes
	var res cluster.JobResult
	var err error
	t.submitted++
	start := time.Now()
	if tr == nil {
		res, err = t.cli.Submit(spec)
	} else {
		tr.do("job", id, func() {
			var p *cluster.Pending
			tr.do("submit", id, func() { p, err = t.cli.SubmitAsync(spec) })
			if err == nil {
				tr.do("wait", id, func() { res, err = p.Wait() })
			}
		})
	}
	jt.wall, jt.fleetRun = time.Since(start), res.Elapsed
	return jt, fleetVerdict(res, err)
}

// fleetVerdict folds the three ways a fleet job fails into one error.
func fleetVerdict(res cluster.JobResult, err error) error {
	switch {
	case err != nil:
		return err
	case res.Rejected:
		return fmt.Errorf("job rejected: %v", res.Err)
	case res.Err != nil:
		return res.Err
	case res.Workers != parallelism:
		return fmt.Errorf("job ran on %d ranks, want %d", res.Workers, parallelism)
	}
	return nil
}

// pipelined runs n jobs at the given grain keeping up to depth
// outstanding on the one client connection, and returns the wall time
// from first submit to last done. Jobs of one shape complete in
// submission order, so waiting on the oldest is waiting on the next.
func (t *fleetTarget) pipelined(n, depth int, iters int64) (time.Duration, []error) {
	t.spec.Graphs[0].Iterations = iters
	t.submitted += n
	var errs []error
	var window []*cluster.Pending
	wait := func() {
		res, err := window[0].Wait()
		window = window[1:]
		if err := fleetVerdict(res, err); err != nil {
			errs = append(errs, err)
		}
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		if len(window) == depth {
			wait()
		}
		p, err := t.cli.SubmitAsync(t.spec)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		window = append(window, p)
	}
	for len(window) > 0 {
		wait()
	}
	return time.Since(start), errs
}

// close tears the fleet down and waits for every worker's Run to
// return.
func (t *fleetTarget) close() {
	if t.cli != nil {
		t.cli.Close()
	}
	for _, wk := range t.workers {
		wk.Close()
	}
	for range t.workers {
		<-t.exited
	}
	t.coord.Close()
}

// negativeControl runs the workload's graph once with corrupted
// payloads and requires the validation machinery to notice. The fleet
// cannot carry FaultRate (wire.GraphSpec has no such field), so its
// graph goes through the rank engine its workers use.
func (w *workload) negativeControl(seed uint64) error {
	p := w.params(seed, 0)
	p.FaultRate = 0.5
	local := *w
	local.path = pathLocal
	t, err := local.open(p, false)
	if err != nil {
		return err
	}
	defer t.close()
	_, err = t.job(0, nil, 0)
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		return fmt.Errorf("negative control: corrupted payloads ran with error %v, want a *core.ValidationError", err)
	}
	return nil
}
