package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"

	"taskbench/internal/cluster"
	"taskbench/internal/core"
	"taskbench/internal/kernels"
	"taskbench/internal/metg"
	tbruntime "taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
	"taskbench/internal/runtime/tcp"
	"taskbench/internal/wire"
)

var (
	sessionPolicies = []string{"taskpool", "steal", "events", "graphexec", "central"}
	rankPolicies    = []string{"p2p", "bsp", "dtd", "ptg", "hybrid"}
)

// searchEvery is how many rounds pass between metg.Search probes: one
// search costs most of a round, and its metric gates nothing.
const searchEvery = 12

// probes holds the prepared state of the direct layer probes: each one
// times calls into a single layer's public functions from outside.
type probes struct {
	r *runner
	g *core.Graph // the workload's graph at zero grain
	// ExecutePoint inputs for timesteps 1..3 (three cover every
	// dependence set of the patterns in use), gathered ahead of time.
	points []execPoint
	out    []byte

	app      *core.App // the workload's graph, for plan builds
	edges    int       // its dependence edges
	plan     *exec.Plan
	rankPlan *exec.RankPlan
	sessions map[string]*localTarget // exec.policy.* and exec.rank.*
	fabric   *exec.Fabric
	payload  []byte
	small    *meshProbe
	large    *meshProbe
	frames   [][]byte
	msgs     []wire.Message
	encBuf   []byte
	search   func() error
	steps    []func() // the direct probes, built once
	cold     int      // cold jobs submitted so far
	// Coordinator and client counters when the warm loop began.
	warmFrom      cluster.Stats
	warmSubmitted int
}

type execPoint struct {
	t, i   int
	inputs [][]byte
}

// meshProbe is a 2-rank loopback mesh over a two-column graph, whose
// one cross-rank edge 0 -> 1 the probe sends along.
type meshProbe struct {
	tr      *tcp.MeshTransport
	payload []byte
}

func zeroGrainApp(w *workload, seed uint64) (*core.App, error) {
	return w.app(w.params(seed, 0))
}

func newProbes(r *runner, t target) (*probes, error) {
	w := r.w
	app, err := zeroGrainApp(w, r.seed)
	if err != nil {
		return nil, err
	}
	p := &probes{r: r, g: app.Graphs[0], app: app, out: make([]byte, w.output), sessions: map[string]*localTarget{}}
	for t := 1; t <= 3 && t < p.g.Timesteps; t++ {
		for i := 0; i < p.g.MaxWidth; i++ {
			pt := execPoint{t: t, i: i}
			it := p.g.PointDeps(t, i)
			for dep, ok := it.Next(); ok; dep, ok = it.Next() {
				buf := make([]byte, w.output)
				p.g.WriteOutput(t-1, dep, buf)
				pt.inputs = append(pt.inputs, buf)
			}
			p.points = append(p.points, pt)
		}
	}
	p.edges = int(referenceDeps(p.g))
	p.plan = exec.BuildPlan(app)
	p.rankPlan = exec.BuildRankPlan(app, parallelism)

	// The policy ladders run on fixed graphs whatever the workload, so
	// their rows are comparable across workloads.
	for _, name := range sessionPolicies {
		if err := p.openSession(name, "dag_stencil"); err != nil {
			return nil, err
		}
	}
	for _, name := range rankPolicies {
		if err := p.openSession(name, "rank_spread"); err != nil {
			return nil, err
		}
	}

	p.fabric = exec.NewFabricFromEdges([][]exec.Edge{{{Producer: 0, Consumer: 1}}})
	p.payload = make([]byte, 64)
	if p.small, err = openMeshProbe(16); err != nil {
		return nil, err
	}
	if p.large, err = openMeshProbe(4096); err != nil {
		return nil, err
	}

	if ft, ok := t.(*fleetTarget); ok {
		p.warmFrom, p.warmSubmitted = ft.coord.Stats(), ft.submitted
		spec := wire.FromApp(app)
		p.msgs = []wire.Message{
			{Type: wire.MsgSubmit, Spec: &spec, Proto: wire.ProtoBinary},
			{Type: wire.MsgRun, Config: 1, Job: 7, Attempt: 1, Kernels: wire.KernelsOf(spec)},
			{Type: wire.MsgResult, Config: 1, Job: 7, Attempt: 1, ElapsedNanos: 123456},
		}
		for _, m := range p.msgs {
			frame, err := wire.AppendMessageBinary(nil, m)
			if err != nil {
				return nil, err
			}
			p.frames = append(p.frames, frame)
		}
	}

	// metg.Search as a user runs it: BackendSweep picks the worker count
	// itself (one, on this P), which is why the gated METG does not go
	// through it.
	dag := workloadByName("dag_stencil")
	rt, err := tbruntime.New(dag.backend)
	if err != nil {
		return nil, err
	}
	p.search = func() error {
		var sweepErr error
		sweep, done := metg.BackendSweep(rt, func(iters int64) *core.Graph {
			return core.MustNew(dag.params(r.seed, iters))
		})
		defer done()
		// The search reads wall-clock times, so its peak is the kernel's
		// wall-clock rate in the run so far.
		peak := kernels.FlopsPerIteration / (r.rawMed("kernels.ns_per_iter") * 1e-9)
		_, _, kind := metg.Search(func(iters int64) core.RunStats {
			st, err := sweep(iters)
			if err != nil && sweepErr == nil {
				sweepErr = err
			}
			return st
		}, dag.topGrain, peak, 0, 0.5, 2)
		if sweepErr == nil && !kind.Reached() {
			sweepErr = fmt.Errorf("metg.Search: METG not reached")
		}
		return sweepErr
	}
	p.steps = p.buildSteps(t)
	return p, nil
}

func (p *probes) openSession(policy, graphOf string) error {
	w := *workloadByName(graphOf)
	w.backend, w.path = policy, pathLocal
	t, err := w.open(w.params(p.r.seed, 0), false)
	if err != nil {
		return fmt.Errorf("probe %s: %w", policy, err)
	}
	p.sessions[policy] = t.(*localTarget)
	return nil
}

func openMeshProbe(payloadBytes int) (*meshProbe, error) {
	g, err := core.New(core.Params{Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1D, OutputBytes: payloadBytes})
	if err != nil {
		return nil, err
	}
	tr, err := openMesh(exec.BuildRankPlan(core.NewApp(g), 2), nil)
	if err != nil {
		return nil, err
	}
	return &meshProbe{tr: tr, payload: make([]byte, payloadBytes)}, nil
}

// openMesh builds the full loopback mesh of an in-process rank plan,
// the way the tcp backend's OpenTransport does, with an optional
// connection wrapper.
func openMesh(plan *exec.RankPlan, wrap func(net.Conn) net.Conn) (*tcp.MeshTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, plan.Ranks)
	for k := range addrs {
		addrs[k] = ln.Addr().String()
	}
	return tcp.NewMeshTransport(plan, tcp.Topology{
		Local: exec.Span{Lo: 0, Hi: plan.Ranks}, Addrs: addrs, Listener: ln, Wrap: wrap,
	})
}

func (p *probes) close() {
	for _, t := range p.sessions {
		t.close()
	}
	if p.small != nil {
		p.small.tr.Close()
	}
	if p.large != nil {
		p.large.tr.Close()
	}
}

// probe times fn as one span and observes its cost per unit.
func (p *probes) probe(name string, units int, fn func()) {
	d := p.r.tr.do(name, -1, fn)
	p.r.observe(name, float64(d)/float64(units))
}

// socketProbe is probe for a call that is loopback traffic, which is
// priced the way the path's own overhead is.
func (p *probes) socketProbe(name string, units int, fn func()) {
	d := p.r.tr.do(name, -1, fn)
	p.r.observePath(name, float64(d)/float64(units), 0)
}

// roundtrip sends n payloads along the mesh probe's edge, one at a
// time: Send + Flush on rank 0, Recv + Recycle on rank 1.
func (m *meshProbe) roundtrip(n int) error {
	for k := 0; k < n; k++ {
		if err := m.tr.Send(0, 0, 0, 1, m.payload); err != nil {
			return err
		}
		if err := m.tr.Flush(0); err != nil {
			return err
		}
		buf := m.tr.Recv(0, 0, 1)
		if len(buf) != len(m.payload) {
			return fmt.Errorf("mesh probe: received %d bytes, want %d", len(buf), len(m.payload))
		}
		m.tr.Recycle(0, buf)
	}
	return nil
}

// check counts a probe that failed as a failed operation.
func (p *probes) check(err error) {
	if err != nil {
		p.r.attempted++
		p.r.fail(err)
	}
}

// buildSteps lists the direct probes, in the order a round runs them.
func (p *probes) buildSteps(t target) []func() {
	g, check := p.g, p.check
	tasks := int(p.r.w.tasks())
	steps := []func(){
		func() {
			const reps = 8
			p.probe("core.depquery", reps*p.edges, func() {
				n := 0
				for k := 0; k < reps; k++ {
					for t := 1; t < g.Timesteps; t++ {
						for i := 0; i < g.MaxWidth; i++ {
							it := g.PointDeps(t, i)
							for _, ok := it.Next(); ok; _, ok = it.Next() {
								n++
							}
						}
					}
				}
				if n != reps*p.edges {
					check(fmt.Errorf("PointDeps walked %d edges, want %d", n, reps*p.edges))
				}
			})
		},
		func() {
			const reps = 64
			p.probe("core.write_output", reps*len(p.points), func() {
				for k := 0; k < reps; k++ {
					for _, pt := range p.points {
						g.WriteOutput(pt.t, pt.i, p.out)
					}
				}
			})
		},
		func() { p.executePoints("core.execute_point", true) },
		func() { p.executePoints("core.execute_point.novalidate", false) },
		func() {
			p.probe("exec.plan_build", 1, func() { exec.BuildPlan(p.app) })
		},
		func() {
			p.probe("exec.rankplan_build", 1, func() { exec.BuildRankPlan(p.app, parallelism) })
		},
		func() {
			const reps = 16
			p.probe("exec.plan_reset", reps*tasks, func() {
				for k := 0; k < reps; k++ {
					p.plan.Reset()
				}
			})
		},
		func() {
			const reps = 64
			p.probe("exec.rankplan_reset", reps*tasks, func() {
				for k := 0; k < reps; k++ {
					p.rankPlan.Reset()
				}
			})
		},
		func() {
			const reps = 2048
			p.probe("exec.fabric_roundtrip", reps, func() {
				for k := 0; k < reps; k++ {
					p.fabric.Send(0, 0, 1, p.payload)
					p.fabric.Recycle(0, p.fabric.Recv(0, 0, 1))
				}
			})
		},
		func() {
			const reps = 16
			p.socketProbe("tcp.send_small", reps, func() { check(p.small.roundtrip(reps)) })
		},
		func() {
			const reps = 16
			p.socketProbe("tcp.send_large", reps, func() { check(p.large.roundtrip(reps)) })
		},
		// Last of the fixed probes: closing its mesh leaves goroutines
		// winding down, which a roundtrip probe right after would feel.
		func() {
			var tr *tcp.MeshTransport
			var err error
			p.socketProbe("tcp.mesh_connect", 1, func() { tr, err = openMesh(p.rankPlan, nil) })
			check(err)
			if tr != nil {
				tr.Close()
			}
		},
	}
	for _, name := range sessionPolicies {
		steps = append(steps, func() { p.zeroGrainJob("exec.policy."+name, p.sessions[name]) })
	}
	for _, name := range rankPolicies {
		steps = append(steps, func() { p.zeroGrainJob("exec.rank."+name, p.sessions[name]) })
	}
	if ft, ok := t.(*fleetTarget); ok {
		steps = append(steps,
			func() {
				const reps = 64
				p.probe("wire.encode", reps, func() {
					for k := 0; k < reps; k++ {
						for _, m := range p.msgs {
							var err error
							if p.encBuf, err = wire.AppendMessageBinary(p.encBuf[:0], m); err != nil {
								check(err)
							}
						}
					}
				})
			},
			func() {
				const reps = 64
				p.probe("wire.decode", reps, func() {
					for k := 0; k < reps; k++ {
						for _, frame := range p.frames {
							if _, err := wire.DecodeMessageBinary(frame); err != nil {
								check(err)
							}
						}
					}
				})
			},
			func() {
				const reps = 4
				p.socketProbe("cluster.stats_rtt", reps, func() {
					for k := 0; k < reps; k++ {
						_, err := ft.cli.Stats()
						check(err)
					}
				})
			},
			func() { p.coldJob(ft) },
		)
	}
	return steps
}

// run executes every probe once; the runner calls it once per round.
// Probes are short, so they share brackets of at most maxSlice.
func (p *probes) run(t target, round int) {
	r := p.r
	r.slices(len(p.steps), func(k int) { p.steps[k]() })

	// The steady-state allocation count: one zero-grain job between two
	// MemStats reads, nothing of the bench's own in between.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.runJob(t, 0, nil)
	runtime.ReadMemStats(&after)
	r.observeExact("exec.allocs_per_task", float64(after.Mallocs-before.Mallocs)/float64(r.w.tasks()))

	p.par2(t)

	if round%searchEvery == 0 {
		r.group(func() {
			var err error
			p.probe("metg.search", 1, func() { err = p.search() })
			p.check(err)
		})
	}
}

func (p *probes) executePoints(name string, validate bool) {
	const reps = 16
	var err error
	p.probe(name, reps*len(p.points), func() {
		for k := 0; k < reps; k++ {
			for _, pt := range p.points {
				if e := p.g.ExecutePoint(pt.t, pt.i, p.out, pt.inputs, nil, validate); e != nil {
					err = e
				}
			}
		}
	})
	p.check(err)
}

// zeroGrainJob runs one job of a policy-ladder session and observes
// its cost per task.
func (p *probes) zeroGrainJob(name string, t *localTarget) {
	var jt jobTimes
	p.r.tr.do(name, -1, func() { jt = p.r.runJob(t, 0, nil) })
	p.r.observe(name, float64(jt.wall)/float64(t.check.tasks))
}

// coldJob submits the workload's graph under a seed the fleet has not
// seen: a new shape key, so the coordinator provisions (prepare,
// connect) before it runs.
func (p *probes) coldJob(ft *fleetTarget) {
	r := p.r
	p.cold++
	app, err := r.w.app(r.w.params(r.seed+uint64(p.cold)<<20, r.w.opGrain))
	if err == nil {
		var jt jobTimes
		r.tr.do("cluster.cold_job", -1, func() { jt, err = ft.submit(wire.FromApp(app), nil, 0) })
		r.observePath("cluster.cold_job", float64(jt.wall), r.w.opGrain)
	}
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// par2 repeats the zero-grain and operating-grain jobs with a second
// P. Ungated: the host's second vCPU delivers anywhere from nothing to
// 0.4 of a core.
func (p *probes) par2(t target) {
	r := p.r
	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(1)
	r.group(func() {
		r.observePath("par2.zero", float64(r.runJob(t, 0, nil).wall), 0)
		r.observePath("par2.op", float64(r.runJob(t, r.w.opGrain, nil).wall), r.w.opGrain)
	})
}

// countingConn counts what the mesh writes to one connection.
type countingConn struct {
	net.Conn
	writes, bytes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// meshCounts runs the workload's graph once at zero grain over a mesh
// of the bench's own whose connections count their traffic (the hook is
// tcp.Topology.Wrap), and returns Write calls per timestep and bytes
// per task. The p2p policy over NewMeshTransport is what both the tcp
// backend and a cluster worker run. A wrapped connection is no longer a
// *net.TCPConn, so net.Buffers falls back from one writev to one Write
// per vector: the count is of batch-frame vectors (header, descriptors,
// each payload), which is what a coalescing change would move.
func meshCounts(w *workload, seed uint64) (writesPerStep, bytesPerTask float64, err error) {
	app, err := zeroGrainApp(w, seed)
	if err != nil {
		return 0, 0, err
	}
	var writes, bytes atomic.Int64
	plan := exec.BuildRankPlan(app, parallelism)
	tr, err := openMesh(plan, func(c net.Conn) net.Conn { return countingConn{c, &writes, &bytes} })
	if err != nil {
		return 0, 0, err
	}
	engine := exec.NewLocalRankEngine(plan, p2p.Policy{}, 1, tr)
	defer engine.Close()
	plan.Reset()
	if err := engine.Run(true); err != nil {
		return 0, 0, err
	}
	return float64(writes.Load()) / float64(w.steps), float64(bytes.Load()) / float64(w.tasks()), nil
}

// usesMesh reports whether the workload's own path moves payloads over
// the tcp mesh.
func (w *workload) usesMesh() bool { return w.backend == "tcp" || w.path == pathFleet }

// perLayer computes the per-layer metrics from a traced run. Metrics of
// a layer the workload's path does not touch stay 0.
func (p *probes) perLayer(t target) (map[string]summary, error) {
	r, w := p.r, p.r.w
	tasks := float64(w.tasks())
	out := map[string]summary{}
	direct := func(metric, series string, f float64) { out[metric] = scaled(r.med(series), f) }

	direct("core.depquery_ns", "core.depquery", 1)
	direct("core.write_output_ns", "core.write_output", 1)
	direct("core.execute_point_ns", "core.execute_point", 1)
	out["core.validate_share"] = derived(1 - r.med("core.execute_point.novalidate").Median/r.med("core.execute_point").Median)
	direct("kernels.ns_per_iter", "kernels.ns_per_iter", 1)
	direct("exec.plan_build_ms", "exec.plan_build", 1e-6)
	direct("exec.rankplan_build_ms", "exec.rankplan_build", 1e-6)
	direct("exec.plan_reset_ns_per_task", "exec.plan_reset", 1)
	direct("exec.rankplan_reset_ns_per_task", "exec.rankplan_reset", 1)
	for _, name := range sessionPolicies {
		direct("exec.policy."+name+".ns_per_task", "exec.policy."+name, 1)
	}
	for _, name := range rankPolicies {
		direct("exec.rank."+name+".ns_per_task", "exec.rank."+name, 1)
	}
	direct("exec.fabric_roundtrip_ns", "exec.fabric_roundtrip", 1)
	direct("exec.allocs_per_task", "exec.allocs_per_task", 1)
	direct("tcp.mesh_connect_ms", "tcp.mesh_connect", 1e-6)
	direct("tcp.send_small_ns", "tcp.send_small", 1)
	direct("tcp.send_large_ns", "tcp.send_large", 1)
	if w.usesMesh() {
		writes, bytes, err := meshCounts(w, r.seed)
		if err != nil {
			return nil, fmt.Errorf("mesh counts: %w", err)
		}
		out["tcp.writes_per_step"], out["tcp.bytes_per_task"] = derived(writes), derived(bytes)
	}
	direct("metg.search_ms", "metg.search", 1e-6)

	out["job_p95_ms"] = derived(percentileOf(r.series["op"].ref, 95) / 1e6)
	out["job_p99_ms"] = derived(percentileOf(r.series["op"].ref, 99) / 1e6)
	rawMETG, kind := r.metg50(true)
	if !kind.Reached() {
		return nil, fmt.Errorf("METG(50%%) not reached on the traced pass")
	}
	out["raw.metg50_us"] = derived(rawMETG / 1e3)
	out["raw.task_overhead_ns"] = derived(r.rawMed("zero") / tasks)
	out["raw.job_p50_ms"] = derived(r.rawMed("op") / 1e6)
	out["par2.task_overhead_ns"] = scaled(r.med("par2.zero"), 1/tasks)
	out["par2.eff_at_grain"] = derived(float64(w.opGrain) * r.med("kernels.ns_per_iter").Median * tasks / r.med("par2.op").Median)

	if ft, ok := t.(*fleetTarget); ok {
		direct("wire.encode_ns", "wire.encode", 1)
		direct("wire.decode_ns", "wire.decode", 1)
		out["wire.submit_bytes"] = derived(float64(len(p.frames[0])))
		direct("cluster.stats_rtt_us", "cluster.stats_rtt", 1e-3)
		direct("cluster.run_ms", "op.fleet_run", 1e-6)
		out["cluster.job_tax_ms"] = derived((r.med("op").Median - r.med("op.fleet_run").Median) / 1e6)
		direct("cluster.cold_job_ms", "cluster.cold_job", 1e-6)
		// Everything submitted since the snapshot bar the cold jobs ran
		// on the one warm shape and should have hit its configuration.
		now := ft.coord.Stats()
		warm := float64(ft.submitted - p.warmSubmitted - p.cold)
		out["cluster.config_hits_per_job"] = derived(float64(now.ConfigCacheHits-p.warmFrom.ConfigCacheHits) / warm)
		out["cluster.retries"] = derived(float64(now.JobsRetried - p.warmFrom.JobsRetried))
	}

	ref := summarize(r.clk.samples)
	out["bench.ref_ns_per_iter"] = ref
	out["bench.ref_spread"] = derived(ref.Q3 / ref.Q1)
	out["bench.loop_ns_per_trip"] = summarize(r.clk.loopSamples)
	out["bench.rounds"] = derived(float64(r.rounds))
	out["bench.heap_live_mb"] = derived(heapLiveMB())
	out["bench.trace_overhead"] = derived(r.med("zero").Median / r.med("zero.untraced").Median)
	return out, nil
}
