package wire

import (
	"time"

	"taskbench/internal/kernels"
)

// ProtoVersion is the version stamped on every cluster protocol
// message. A receiver rejects a message from a newer version instead of
// misinterpreting its fields. Any change to the binary field schedule
// (binary.go) bumps it, and fields are only ever appended, per the
// statsFields contract: version 6 ends with StatsInfo's cache hit/miss
// counters, heartbeat age and latency percentiles. It also versions the
// tcp mesh's frames: from version 7 a descriptor names its edge by id,
// and from version 8 a header carries its sender's step count where a
// constant marker was. Version 9 retires accepted and StatsInfo's
// configs_reused: a submit names its job with a client-chosen id.
// Version 10 gives each rank pair one mesh connection, dialed by the
// lower rank and written from both ends. Version 11 retires connect
// and ready: a configuration's first run carries one data address per
// member, and each worker wires the mesh before it runs.
const ProtoVersion = 11

// Message types of the cluster control protocol. One flat Message
// envelope carries every type; unused fields stay at their zero value
// (one byte each on the wire, omitted from the JSON rendering).
//
// Worker ↔ coordinator:
//
//	register →, ← welcome            worker joins the fleet
//	heartbeat →                      liveness, every HeartbeatNanos
//	← prepare, prepared →            build app/plan + data listener
//	← run, result →                  one job on a prepared config; the
//	                                 config's first run carries the
//	                                 members' data addresses and wires
//	                                 the rank mesh before it runs
//	← release                        drop a config (session teardown)
//	drain →, ← drained               graceful departure: the worker
//	                                 announces it is leaving; the
//	                                 coordinator stops placing on it,
//	                                 unwinds its configs, and answers
//	                                 drained when the worker may exit
//	                                 (distinct from the heartbeat-driven
//	                                 death path, which needs no consent)
//
// Client ↔ coordinator:
//
//	submit →, ← rejected | done      one verdict per submit: rejected at
//	                                 once (full queue, invalid spec) or
//	                                 done when the job ends; many jobs
//	                                 may be in flight per connection
//	cancel →                         abandon a submitted job
//	stats →, ← statsreply            coordinator gauge/counter snapshot
//
// Every client request carries an id of the client's choosing in Job,
// unique among its connection's requests in flight, and every reply
// echoes it: the client matches replies by id, never by order.
const (
	MsgRegister  = "register"
	MsgWelcome   = "welcome"
	MsgHeartbeat = "heartbeat"
	MsgPrepare   = "prepare"
	MsgPrepared  = "prepared"
	MsgRun       = "run"
	MsgResult    = "result"
	MsgRelease   = "release"
	MsgSubmit    = "submit"
	MsgRejected  = "rejected"
	MsgCancel    = "cancel"
	MsgDone      = "done"
	MsgStats     = "stats"
	MsgStatsRply = "statsreply"
	MsgDrain     = "drain"
	MsgDrained   = "drained"
)

// StatsInfo is the coordinator snapshot carried by a statsreply: the
// gauges and counters a remote client (the load generator's
// utilization feed) needs without scraping coordinator process
// internals. Counters are cumulative since coordinator start; gauges
// are instantaneous.
type StatsInfo struct {
	// Workers is the live fleet size.
	Workers int `json:"workers,omitempty"`
	// ConfigsBuilt counts configuration provisioning.
	ConfigsBuilt int `json:"configs_built,omitempty"`
	// JobsRun counts completed jobs (success or failure); JobsFailed
	// the failures among them.
	JobsRun    int `json:"jobs_run,omitempty"`
	JobsFailed int `json:"jobs_failed,omitempty"`
	// JobsInFlight and JobsRunning are gauges: jobs claimed by
	// scheduler slots, and jobs actually executing on the fleet.
	JobsInFlight int `json:"jobs_in_flight,omitempty"`
	JobsRunning  int `json:"jobs_running,omitempty"`
	// JobsRetried / JobsRejected / JobsCancelled mirror the
	// coordinator's counters of the same names.
	JobsRetried   int `json:"jobs_retried,omitempty"`
	JobsRejected  int `json:"jobs_rejected,omitempty"`
	JobsCancelled int `json:"jobs_cancelled,omitempty"`
	// QueueLen / QueueCap are the admission queue's current depth and
	// capacity — the backpressure gauge.
	QueueLen int `json:"queue_len,omitempty"`
	QueueCap int `json:"queue_cap,omitempty"`
	// Concurrency is the scheduler slot count — the denominator of
	// fleet utilization.
	Concurrency int `json:"concurrency,omitempty"`
	// MaxAttempts is the per-job run budget (1 = retry disabled).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// ConfigsReprovisioned counts configs torn down and rebuilt because
	// the fleet changed under them (join growth, drain shrink);
	// ConfigsEvicted counts cold configs dropped by the LRU cap.
	ConfigsReprovisioned int `json:"configs_reprovisioned,omitempty"`
	ConfigsEvicted       int `json:"configs_evicted,omitempty"`
	// WorkersDraining is a gauge: fleet members mid-drain (excluded
	// from placement, not yet released).
	WorkersDraining int `json:"workers_draining,omitempty"`
	// ConfigCacheHits / ConfigCacheMisses are first-class cache-outcome
	// counters: jobs that found a usable prepared configuration vs jobs
	// that had to provision (first of a shape, or after stale/lost).
	ConfigCacheHits   int `json:"config_cache_hits,omitempty"`
	ConfigCacheMisses int `json:"config_cache_misses,omitempty"`
	// MaxHeartbeatAgeNanos is a gauge: the age of the stalest live
	// worker's last heartbeat — the fleet-liveness early warning.
	MaxHeartbeatAgeNanos int `json:"max_heartbeat_age_ns,omitempty"`
	// LatencyP50/P95/P99Nanos are nearest-rank percentiles of the
	// admission→done job latency histogram, cumulative since
	// coordinator start (0 until a job completes).
	LatencyP50Nanos int `json:"latency_p50_ns,omitempty"`
	LatencyP95Nanos int `json:"latency_p95_ns,omitempty"`
	LatencyP99Nanos int `json:"latency_p99_ns,omitempty"`
}

// KernelSpec is the JSON form of one graph's kernel configuration —
// the part of a job that changes between runs of the same
// configuration (an METG sweep shrinks Iterations while the DAG shape,
// and therefore the prepared session, stays fixed). GraphSpec embeds
// it, so these five fields are declared, converted and encoded here
// only.
type KernelSpec struct {
	Kernel     string  `json:"kernel,omitempty"`
	Iterations int64   `json:"iterations,omitempty"`
	SpanBytes  int64   `json:"span_bytes,omitempty"`
	WaitNanos  int64   `json:"wait_nanos,omitempty"`
	Imbalance  float64 `json:"imbalance,omitempty"`
}

// KernelSpecOf converts a live kernel configuration to its JSON form.
func KernelSpecOf(k kernels.Config) KernelSpec {
	ks := KernelSpec{
		Iterations: k.Iterations,
		SpanBytes:  k.SpanBytes,
		WaitNanos:  int64(k.WaitDuration),
		Imbalance:  k.ImbalanceFactor,
	}
	if k.Type != kernels.Empty {
		ks.Kernel = k.Type.String()
	}
	return ks
}

// ToConfig validates the spec and returns the kernel configuration.
func (ks KernelSpec) ToConfig() (kernels.Config, error) {
	k := kernels.Config{
		Iterations:      ks.Iterations,
		SpanBytes:       ks.SpanBytes,
		WaitDuration:    time.Duration(ks.WaitNanos),
		ImbalanceFactor: ks.Imbalance,
	}
	if ks.Kernel != "" {
		t, err := kernels.ParseType(ks.Kernel)
		if err != nil {
			return kernels.Config{}, err
		}
		k.Type = t
	}
	if err := k.Validate(); err != nil {
		return kernels.Config{}, err
	}
	return k, nil
}

// Message is the single envelope of the cluster control protocol. It
// travels as one binary frame (binary.go) on the coordinator's TCP
// control port; the JSON tags are the rendering of the messages.jsonl
// golden, not a wire format. Type selects which fields are meaningful.
type Message struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	// Proto is a reserved slot of the binary field schedule: no sender
	// sets it and no receiver reads it. It stays so the schedule — and
	// with it every frame's bytes — does not move.
	Proto string `json:"proto,omitempty"`

	// Name identifies a worker at registration.
	Name string `json:"name,omitempty"`
	// Worker is the coordinator-assigned worker id (welcome).
	Worker int64 `json:"worker,omitempty"`
	// HeartbeatNanos is the interval workers must heartbeat at
	// (welcome).
	HeartbeatNanos int64 `json:"heartbeat_nanos,omitempty"`

	// Config identifies a prepared configuration (prepare…release).
	Config uint64 `json:"config,omitempty"`
	// Job identifies one job: the coordinator's id towards workers
	// (run, result), the client's id towards clients (submit, rejected,
	// cancel, done), or a stats query (stats, statsreply).
	Job uint64 `json:"job,omitempty"`
	// Attempt is the retry generation of a run (run, result): a job
	// re-queued after a worker death runs again with the next attempt
	// number, and results are matched on (job, attempt) so a stale
	// run's late result cannot be mistaken for the live attempt's.
	Attempt int `json:"attempt,omitempty"`

	// Ranks is the total rank count of a configuration (prepare).
	Ranks int `json:"ranks,omitempty"`
	// RankLo, RankHi delimit the worker's contiguous rank span
	// (prepare); Lo inclusive, Hi exclusive.
	RankLo int `json:"rank_lo,omitempty"`
	RankHi int `json:"rank_hi,omitempty"`

	// Spec carries the full app configuration (submit, prepare).
	Spec *AppSpec `json:"spec,omitempty"`
	// Kernels carries per-graph kernel overrides for one run, in graph
	// order (run).
	Kernels []KernelSpec `json:"kernels,omitempty"`

	// Addr is the data address a worker's mesh listener is bound to
	// (prepared).
	Addr string `json:"addr,omitempty"`
	// Addrs lists every member's data address in member order (a
	// configuration's first run): member k hosts block k of the
	// prepared ranks split len(Addrs) ways by exec.BlockAssign.
	Addrs []string `json:"addrs,omitempty"`

	// ElapsedNanos is the measured wall time of a run (result, done).
	ElapsedNanos int64 `json:"elapsed_nanos,omitempty"`
	// Workers is the rank count a completed job actually ran on (done).
	Workers int `json:"workers,omitempty"`

	// Err carries a failure through prepared, result and done.
	Err string `json:"err,omitempty"`

	// Stats is the coordinator snapshot of a statsreply.
	Stats *StatsInfo `json:"stats,omitempty"`
}

// ShapeKey canonicalizes the structural part of a spec — everything
// except the kernel configurations — as a comparable string: the
// spec's binary encoding (appendSpec) with every KernelSpec zeroed.
// Two jobs with equal shape keys can share one prepared cluster
// configuration (plans, payload rows, connection mesh), the
// cross-request analog of the reusable RankSession.
func ShapeKey(spec AppSpec) string {
	graphs := make([]GraphSpec, len(spec.Graphs))
	for i, g := range spec.Graphs {
		g.KernelSpec = KernelSpec{}
		graphs[i] = g
	}
	spec.Graphs = graphs
	var buf [128]byte // a typical key fits, so only the string is copied out
	return string(appendSpec(buf[:0], spec))
}

// KernelsOf extracts the per-graph kernel configurations of a spec, in
// graph order — the payload of a run message.
func KernelsOf(spec AppSpec) []KernelSpec {
	ks := make([]KernelSpec, len(spec.Graphs))
	for i, g := range spec.Graphs {
		ks[i] = g.KernelSpec
	}
	return ks
}
