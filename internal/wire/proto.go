package wire

import (
	"encoding/json"
	"fmt"
	"time"

	"taskbench/internal/kernels"
)

// ProtoVersion is the version stamped on every cluster protocol
// message. A receiver rejects a message from a newer version instead of
// misinterpreting its fields. Any change to the binary field schedule
// (binary.go) bumps it, and fields are only ever appended, per the
// statsFields contract: version 6 ends with StatsInfo's cache hit/miss
// counters, heartbeat age and latency percentiles.
const ProtoVersion = 6

// Message types of the cluster control protocol. One flat Message
// envelope carries every type; unused fields stay at their zero value
// (one byte each on the wire, omitted from the JSON rendering).
//
// Worker ↔ coordinator:
//
//	register →, ← welcome            worker joins the fleet
//	heartbeat →                      liveness, every HeartbeatNanos
//	← prepare, prepared →            build app/plan + data listener
//	← connect, ready →               wire the rank mesh across workers
//	← run, result →                  one job on a prepared config
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
//	submit →, ← accepted | rejected  admission: every submit is answered
//	                                 immediately — accepted (queued) or
//	                                 rejected (full queue, invalid spec)
//	← done                           one per accepted job, matched by id;
//	                                 many jobs may be in flight per
//	                                 connection
//	cancel →                         abandon an accepted job by id
//	stats →, ← statsreply            coordinator gauge/counter snapshot;
//	                                 the request's Job field is a
//	                                 client-chosen correlation id the
//	                                 reply echoes, so stats interleave
//	                                 freely with in-flight jobs
const (
	MsgRegister  = "register"
	MsgWelcome   = "welcome"
	MsgHeartbeat = "heartbeat"
	MsgPrepare   = "prepare"
	MsgPrepared  = "prepared"
	MsgConnect   = "connect"
	MsgReady     = "ready"
	MsgRun       = "run"
	MsgResult    = "result"
	MsgRelease   = "release"
	MsgSubmit    = "submit"
	MsgAccepted  = "accepted"
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
	// ConfigsBuilt / ConfigsReused count configuration provisioning
	// vs cross-request reuse.
	ConfigsBuilt  int `json:"configs_built,omitempty"`
	ConfigsReused int `json:"configs_reused,omitempty"`
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
	// Job identifies one queued job (run, result, accepted, rejected,
	// cancel, done).
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
	// Addrs maps every rank to the data address of its hosting worker
	// (connect).
	Addrs []string `json:"addrs,omitempty"`

	// ElapsedNanos is the measured wall time of a run (result, done).
	ElapsedNanos int64 `json:"elapsed_nanos,omitempty"`
	// Workers is the rank count a completed job actually ran on (done).
	Workers int `json:"workers,omitempty"`

	// Err carries a failure through prepared, ready, result and done.
	Err string `json:"err,omitempty"`

	// Stats is the coordinator snapshot of a statsreply.
	Stats *StatsInfo `json:"stats,omitempty"`
}

// ShapeKey canonicalizes the structural part of a spec — everything
// except the kernel configurations — as a comparable string. Two jobs
// with equal shape keys can share one prepared cluster configuration
// (plans, payload rows, connection mesh), the cross-request analog of
// the reusable RankSession.
func ShapeKey(spec AppSpec) string {
	shape := spec
	shape.Graphs = make([]GraphSpec, len(spec.Graphs))
	for i, g := range spec.Graphs {
		g.KernelSpec = KernelSpec{}
		shape.Graphs[i] = g
	}
	b, err := json.Marshal(shape)
	if err != nil {
		// AppSpec contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("wire: shape key: %v", err))
	}
	return string(b)
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
