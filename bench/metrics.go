package main

// metric is one row of the benchmark's metric table. The table is the
// single source for -list, for the printed output and for
// BENCHMARK.json (TestBenchmarkJSONMatchesTable holds the two equal).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression;
	// only end-to-end metrics have one.
	Bound float64
	// Note says what the metric is; for a layer metric, which
	// end-to-end metric it should move and on which workload.
	// Everywhere else the prediction is no change.
	Note string
}

// endToEnd is the same set on every workload. Times are ref-clock:
// scaled to what they would read on a host whose reference loop runs
// at refNominalNS per iteration (see clock.go). Every value is a median
// of what the stopwatch read. The bounds are the issue's; a metric that
// cannot repeat within its bound on this host does not get a wider one,
// it is not gated (job_p95_ms, below).
var endToEnd = []metric{
	{"metg50_us", "us", "lower", 0.10, "METG(50%): isotonic-curve crossing of granularity at 50% efficiency"},
	{"task_overhead_ns", "ns", "lower", 0.07, "job wall / tasks with compute_bound, Iterations = 0"},
	{"eff_at_grain", "ratio", "higher", 0.05, "efficiency at the workload's fixed operating grain"},
	{"job_p50_ms", "ms", "lower", 0.07, "median job latency at the operating grain, closed loop, 1 outstanding"},
	{"jobs_per_s", "1/s", "higher", 0.07, "closed-loop throughput at the operating grain: back-to-back in process, 4 outstanding on the fleet"},
	{"setup_s", "s", "lower", 0.15, "nothing -> first job done; median of one fresh set-up per round"},
	{"peak_rss_mb", "MB", "lower", 0.10, "VmHWM at exit"},
}

// perLayer is reported by the traced pass only. Metrics of a layer the
// workload's path does not touch read 0.
var perLayer = []metric{
	{"core.depquery_ns", "ns", "lower", 0, "Graph.PointDeps + Next per edge, workload's pattern -> task_overhead_ns on rank_spread; not dag_stencil"},
	{"core.write_output_ns", "ns", "lower", 0, "WriteOutput at the workload's payload size -> task_overhead_ns, metg50_us on tcp_payload (fill)"},
	{"core.execute_point_ns", "ns", "lower", 0, "ExecutePoint at zero grain with the workload's inputs -> task_overhead_ns on tcp_payload (fill), rank_spread (headers)"},
	{"core.validate_share", "ratio", "lower", 0, "1 - ExecutePoint(validate off)/ExecutePoint(validate on) -> task_overhead_ns on rank_spread"},
	{"kernels.ns_per_iter", "ns", "lower", 0, "kernels.Execute compute-bound; denominator of every eff_at_grain/metg50_us; should never move"},
	{"exec.plan_build_ms", "ms", "lower", 0, "BuildPlan on the workload's graph -> setup_s on dag_stencil"},
	{"exec.rankplan_build_ms", "ms", "lower", 0, "BuildRankPlan on the workload's graph, 2 ranks -> setup_s on rank_spread"},
	{"exec.plan_reset_ns_per_task", "ns", "lower", 0, "Plan.Reset / tasks -> job_p50_ms, jobs_per_s on dag_stencil"},
	{"exec.rankplan_reset_ns_per_task", "ns", "lower", 0, "RankPlan.Reset / tasks -> job_p50_ms, jobs_per_s on rank_spread"},
	{"exec.policy.taskpool.ns_per_task", "ns", "lower", 0, "Session.Run at zero grain on the dag_stencil graph -> task_overhead_ns on dag_stencil"},
	{"exec.policy.steal.ns_per_task", "ns", "lower", 0, "same graph, steal policy; no gated metric"},
	{"exec.policy.events.ns_per_task", "ns", "lower", 0, "same graph, events policy; no gated metric"},
	{"exec.policy.graphexec.ns_per_task", "ns", "lower", 0, "same graph, graphexec policy; no gated metric"},
	{"exec.policy.central.ns_per_task", "ns", "lower", 0, "same graph, central policy; no gated metric"},
	{"exec.rank.p2p.ns_per_task", "ns", "lower", 0, "RankSession.Run at zero grain on the rank_spread graph -> task_overhead_ns on rank_spread"},
	{"exec.rank.bsp.ns_per_task", "ns", "lower", 0, "same graph, bsp policy; no gated metric"},
	{"exec.rank.dtd.ns_per_task", "ns", "lower", 0, "same graph, dtd policy; no gated metric"},
	{"exec.rank.ptg.ns_per_task", "ns", "lower", 0, "same graph, ptg policy; no gated metric"},
	{"exec.rank.hybrid.ns_per_task", "ns", "lower", 0, "same graph, hybrid policy; no gated metric"},
	{"exec.fabric_roundtrip_ns", "ns", "lower", 0, "Fabric.Send + Recv + Recycle, 64 B -> task_overhead_ns on rank_spread"},
	{"exec.allocs_per_task", "count", "lower", 0, "MemStats.Mallocs delta / tasks, steady state -> peak_rss_mb; expected 0 per DESIGN 8"},
	{"tcp.mesh_connect_ms", "ms", "lower", 0, "tcp.NewMeshTransport, 2-rank loopback -> setup_s on tcp_payload, fleet_small_jobs"},
	{"tcp.send_small_ns", "ns", "lower", 0, "MeshTransport.Send + Flush + Recv + Recycle at 16 B -> task_overhead_ns on fleet_small_jobs"},
	{"tcp.send_large_ns", "ns", "lower", 0, "the same at 4096 B -> task_overhead_ns on tcp_payload"},
	{"tcp.writes_per_step", "count", "lower", 0, "Write calls on the counting net.Conn per timestep of one job; explains tcp.send_*"},
	{"tcp.bytes_per_task", "count", "lower", 0, "bytes written to the mesh per task of one job; explains tcp.send_*"},
	{"wire.encode_ns", "ns", "lower", 0, "AppendMessageBinary of one submit + run + result -> job_p50_ms on fleet_small_jobs only"},
	{"wire.decode_ns", "ns", "lower", 0, "DecodeMessageBinary of the same three frames -> job_p50_ms on fleet_small_jobs only"},
	{"wire.submit_bytes", "count", "lower", 0, "length of the binary submit frame"},
	{"cluster.stats_rtt_us", "us", "lower", 0, "Client.Stats(): floor of job_p50_ms on fleet_small_jobs"},
	{"cluster.run_ms", "ms", "lower", 0, "median JobResult.Elapsed -> job_p50_ms, jobs_per_s on fleet_small_jobs"},
	{"cluster.job_tax_ms", "ms", "lower", 0, "job_p50_ms minus cluster.run_ms: admission, fan-out, gather, demux -> job_p50_ms, jobs_per_s on fleet_small_jobs"},
	{"cluster.cold_job_ms", "ms", "lower", 0, "first job of an unseen shape on a warm fleet -> setup_s on fleet_small_jobs"},
	{"cluster.config_hits_per_job", "count", "higher", 0, "Coordinator.Stats() ConfigCacheHits delta / jobs on the warm loop; 1.0"},
	{"cluster.retries", "count", "lower", 0, "Coordinator.Stats() JobsRetried delta on the warm loop; 0"},
	{"metg.search_ms", "ms", "lower", 0, "one metg.Search over metg.BackendSweep on the dag_stencil graph; the time a user waits for one METG"},
	{"job_p95_ms", "ms", "lower", 0, "95th percentile (nearest rank) of the job latency samples, pooled over the run; ungated, it moved 10% A/A on the fleet"},
	{"job_p99_ms", "ms", "lower", 0, "99th percentile of the same samples; ungated, it moved 13% A/A"},
	{"raw.metg50_us", "us", "lower", 0, "metg50_us from wall-clock timings, not ref-clock"},
	{"raw.task_overhead_ns", "ns", "lower", 0, "task_overhead_ns from wall-clock timings"},
	{"raw.job_p50_ms", "ms", "lower", 0, "job_p50_ms from wall-clock timings"},
	{"par2.task_overhead_ns", "ns", "lower", 0, "task_overhead_ns at GOMAXPROCS(2); the window on cross-core queue traffic"},
	{"par2.eff_at_grain", "ratio", "higher", 0, "eff_at_grain at GOMAXPROCS(2), against one core's peak"},
	{"bench.ref_ns_per_iter", "ns", "lower", 0, "raw median of the reference loop; health of the host"},
	{"bench.ref_spread", "ratio", "lower", 0, "p75/p25 of the reference samples"},
	{"bench.loop_ns_per_trip", "ns", "lower", 0, "raw median of the loopback ruler's round trip; health of the host's loopback path; 0 off fleet_small_jobs"},
	{"bench.rounds", "count", "higher", 0, "rounds completed in the run"},
	{"bench.heap_live_mb", "MB", "lower", 0, "HeapAlloc after runtime.GC() at the end of the run"},
	{"bench.trace_overhead", "ratio", "lower", 0, "traced / untraced task_overhead_ns"},
}
