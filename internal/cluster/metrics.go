package cluster

import (
	"fmt"
	"strings"
	"time"

	"taskbench/internal/metrics"
	"taskbench/internal/wire"
)

// Exported metric names: the contract between the coordinator's
// registry, the /metrics exposition and the PromQL examples in the
// README. Gauges carry bare names; counters end in _total per
// Prometheus convention. The coordinator registers exactly these
// families (TestRegisteredFamiliesAreMetricConstants).
const (
	MetricQueueDepth      = "taskbench_queue_depth"
	MetricQueueCapacity   = "taskbench_queue_capacity"
	MetricJobsInFlight    = "taskbench_jobs_in_flight"
	MetricJobsRunning     = "taskbench_jobs_running"
	MetricWorkersLive     = "taskbench_workers_live"
	MetricWorkersDraining = "taskbench_workers_draining"
	MetricSchedulerSlots  = "taskbench_scheduler_slots"
	MetricConfigsPrepared = "taskbench_configs_prepared" // from placement, provisioning included
	MetricHeartbeatAge    = "taskbench_worker_heartbeat_age_seconds"

	MetricJobsCompleted = "taskbench_jobs_completed_total"
	MetricJobsFailed    = "taskbench_jobs_failed_total"
	MetricJobsRetried   = "taskbench_jobs_retried_total"
	MetricJobsRejected  = "taskbench_jobs_rejected_total"
	MetricJobsCancelled = "taskbench_jobs_cancelled_total"
	MetricJobsGaveUp    = "taskbench_jobs_gave_up_total"

	MetricConfigsBuilt         = "taskbench_configs_built_total"
	MetricConfigsReprovisioned = "taskbench_configs_reprovisioned_total"
	MetricConfigsEvicted       = "taskbench_configs_evicted_total"
	MetricCacheHits            = "taskbench_config_cache_hits_total"
	MetricCacheMisses          = "taskbench_config_cache_misses_total"

	MetricJobLatency = "taskbench_job_latency_seconds"
	MetricQueueWait  = "taskbench_job_queue_wait_seconds"
)

// coordMetrics is the coordinator's instrumentation and its only event
// counters. Counters, histograms and the two job gauges are updated by
// the loop as jobs move; the gauges derived from coordinator state are
// set by Coordinator.sample, which Stats and the /metrics handler both
// run on the loop.
type coordMetrics struct {
	reg *metrics.Registry

	inFlight *metrics.Gauge
	running  *metrics.Gauge

	queueDepth      *metrics.Gauge
	workersLive     *metrics.Gauge
	workersDraining *metrics.Gauge
	configsPrepared *metrics.Gauge
	heartbeatAge    *metrics.Gauge

	jobsCompleted *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsRetried   *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsCancelled *metrics.Counter
	jobsGaveUp    *metrics.Counter

	configsBuilt         *metrics.Counter
	configsReprovisioned *metrics.Counter
	configsEvicted       *metrics.Counter
	cacheHits            *metrics.CounterVec
	cacheMisses          *metrics.CounterVec

	jobLatency *metrics.Histogram
	queueWait  *metrics.Histogram
}

// newCoordMetrics builds the registry. Queue capacity and job slots
// never change, so they are set here once.
func newCoordMetrics(opts Options) *coordMetrics {
	reg := metrics.NewRegistry()
	reg.Gauge(MetricQueueCapacity, "Job queue capacity.").Set(float64(opts.QueueDepth))
	reg.Gauge(MetricSchedulerSlots, "Job slots (Options.Concurrency).").Set(float64(opts.Concurrency))
	return &coordMetrics{
		reg: reg,

		inFlight: reg.Gauge(MetricJobsInFlight, "Jobs claimed by job slots."),
		running:  reg.Gauge(MetricJobsRunning, "Jobs currently executing on the fleet."),

		queueDepth:      reg.Gauge(MetricQueueDepth, "Jobs queued awaiting a job slot."),
		workersLive:     reg.Gauge(MetricWorkersLive, "Registered live workers."),
		workersDraining: reg.Gauge(MetricWorkersDraining, "Fleet members mid-drain."),
		configsPrepared: reg.Gauge(MetricConfigsPrepared, "Shapes currently holding a configuration, counted from placement (provisioning included)."),
		heartbeatAge:    reg.Gauge(MetricHeartbeatAge, "Age of the stalest live worker's last heartbeat."),

		jobsCompleted: reg.Counter(MetricJobsCompleted, "Jobs that ran to completion, successful or not."),
		jobsFailed:    reg.Counter(MetricJobsFailed, "Jobs that completed with an error."),
		jobsRetried:   reg.Counter(MetricJobsRetried, "Re-runs after a worker death (one per extra attempt)."),
		jobsRejected:  reg.Counter(MetricJobsRejected, "Submissions refused at admission."),
		jobsCancelled: reg.Counter(MetricJobsCancelled, "Jobs abandoned before completion by client disconnect or cancel."),
		jobsGaveUp:    reg.Counter(MetricJobsGaveUp, "Retryable jobs that exhausted their attempt budget."),

		configsBuilt:         reg.Counter(MetricConfigsBuilt, "Configurations provisioned across the fleet."),
		configsReprovisioned: reg.Counter(MetricConfigsReprovisioned, "Configurations dropped because the fleet changed under them."),
		configsEvicted:       reg.Counter(MetricConfigsEvicted, "Idle configurations dropped by the MaxConfigs LRU cap."),
		cacheHits:            reg.CounterVec(MetricCacheHits, "Jobs that reused an already-prepared configuration, by shape.", "shape"),
		cacheMisses:          reg.CounterVec(MetricCacheMisses, "Jobs that had to provision a configuration, by shape.", "shape"),

		jobLatency: reg.Histogram(MetricJobLatency, "Job latency from admission to done reply.", nil),
		queueWait:  reg.Histogram(MetricQueueWait, "Time from admission to a job slot claiming the job.", nil),
	}
}

// sample sets the gauges derived from coordinator state and returns
// them as the fleet fields of a Stats. It runs on the loop, which owns
// that state. An empty fleet has heartbeat age 0: nothing to be stale
// about.
func (c *Coordinator) sample() Stats {
	var s Stats
	now := time.Now()
	var age time.Duration
	prepared := 0
	s.Workers = len(c.workers)
	for _, w := range c.workers {
		if w.draining {
			s.WorkersDraining++
		}
		age = max(age, now.Sub(w.lastSeen))
	}
	for _, e := range c.configs {
		if e.cfg != nil {
			prepared++
		}
	}
	s.QueueLen = len(c.queue)
	s.MaxHeartbeatAgeNanos = int(age)

	m := c.metrics
	m.queueDepth.Set(float64(s.QueueLen))
	m.workersLive.Set(float64(s.Workers))
	m.workersDraining.Set(float64(s.WorkersDraining))
	m.configsPrepared.Set(float64(prepared))
	m.heartbeatAge.Set(age.Seconds())
	return s
}

// counted fills in the rest of a Stats: every counter from the
// registry, and the fixed dimensions.
func (c *Coordinator) counted(s Stats) Stats {
	m := c.metrics
	s.ConfigsBuilt = int(m.configsBuilt.Value())
	s.JobsRun = int(m.jobsCompleted.Value())
	s.JobsFailed = int(m.jobsFailed.Value())
	s.JobsInFlight = int(m.inFlight.Value())
	s.JobsRunning = int(m.running.Value())
	s.JobsRetried = int(m.jobsRetried.Value())
	s.JobsRejected = int(m.jobsRejected.Value())
	s.JobsCancelled = int(m.jobsCancelled.Value())
	s.QueueCap = c.opts.QueueDepth
	s.Concurrency = c.opts.Concurrency
	s.MaxAttempts = c.opts.MaxAttempts
	s.ConfigsReprovisioned = int(m.configsReprovisioned.Value())
	s.ConfigsEvicted = int(m.configsEvicted.Value())
	s.ConfigCacheHits = int(m.cacheHits.Total())
	s.ConfigCacheMisses = int(m.cacheMisses.Total())
	if lat := m.jobLatency.Snapshot(); lat.Count > 0 {
		s.LatencyP50Nanos = int(lat.Quantile(0.50) * float64(time.Second))
		s.LatencyP95Nanos = int(lat.Quantile(0.95) * float64(time.Second))
		s.LatencyP99Nanos = int(lat.Quantile(0.99) * float64(time.Second))
	}
	return s
}

// shapeLabel renders a spec's structural shape as a bounded-length,
// human-readable metric label: per-graph "type/WxS" joined by "+",
// plus the requested rank count. Unlike wire.ShapeKey (the exact
// binary encoding used as the cache key), the label is for dashboards —
// two specs with the same label may be distinct cache keys (kernel
// payload sizes differ), and that is fine for a counter label.
func shapeLabel(spec wire.AppSpec) string {
	var b strings.Builder
	for i, g := range spec.Graphs {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s/%dx%d", g.Type, g.Width, g.Steps)
	}
	if spec.Workers > 0 {
		fmt.Fprintf(&b, "/r%d", spec.Workers)
	}
	return b.String()
}
