package cluster

import (
	"fmt"
	"strings"
	"time"

	"taskbench/internal/metrics"
	"taskbench/internal/wire"
)

// Exported metric names: the contract between the coordinator's
// registry, the /metrics exposition, the /snapshots.json ring and the
// PromQL examples in the README. Gauges carry bare names; counters end
// in _total per Prometheus convention. The coordinator registers
// exactly these families (TestRegisteredFamiliesAreMetricConstants).
const (
	MetricQueueDepth      = "taskbench_queue_depth"
	MetricQueueCapacity   = "taskbench_queue_capacity"
	MetricJobsInFlight    = "taskbench_jobs_in_flight"
	MetricJobsRunning     = "taskbench_jobs_running"
	MetricWorkersLive     = "taskbench_workers_live"
	MetricWorkersDraining = "taskbench_workers_draining"
	MetricSchedulerSlots  = "taskbench_scheduler_slots"
	MetricConfigsPrepared = "taskbench_configs_prepared"
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
// counters: counters, the two job gauges and histograms updated from
// the scheduler paths (atomic writes, no coordinator locks), the other
// gauges computed at scrape time from the coordinator's own state.
// Coordinator.Stats and the statsreply read the same instruments.
type coordMetrics struct {
	reg *metrics.Registry

	inFlight *metrics.Gauge
	running  *metrics.Gauge

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

// newCoordMetrics builds the registry and wires the gauge functions to
// the coordinator. Gauge functions run at scrape/snapshot time with
// the registry mutex held and take c.mu (or read atomics) themselves —
// so coordinator code must never call registry-level methods (scrape,
// snapshot, registration) while holding c.mu. Counter and histogram
// updates are atomic and safe anywhere.
func newCoordMetrics(c *Coordinator) *coordMetrics {
	reg := metrics.NewRegistry()
	m := &coordMetrics{
		reg: reg,

		inFlight: reg.Gauge(MetricJobsInFlight, "Jobs claimed by scheduler slots."),
		running:  reg.Gauge(MetricJobsRunning, "Jobs currently executing on the fleet."),

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
		queueWait:  reg.Histogram(MetricQueueWait, "Time from admission to a scheduler slot claiming the job.", nil),
	}

	// locked wraps a reader so the gauge samples under c.mu.
	locked := func(fn func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return fn()
		}
	}
	reg.GaugeFunc(MetricQueueDepth, "Jobs queued awaiting a scheduler slot.",
		locked(func() float64 { return float64(len(c.queue)) }))
	reg.GaugeFunc(MetricQueueCapacity, "Job queue capacity.",
		locked(func() float64 { return float64(c.opts.QueueDepth) }))
	reg.GaugeFunc(MetricWorkersLive, "Registered live workers.",
		locked(func() float64 { return float64(len(c.workers)) }))
	reg.GaugeFunc(MetricWorkersDraining, "Fleet members mid-drain.",
		locked(func() float64 { return float64(c.drainingLocked()) }))
	reg.GaugeFunc(MetricSchedulerSlots, "Scheduler concurrency slots.",
		locked(func() float64 { return float64(c.opts.Concurrency) }))
	reg.GaugeFunc(MetricConfigsPrepared, "Shapes currently holding a prepared configuration.",
		locked(func() float64 {
			n := 0
			for _, e := range c.configs {
				if e.cfg != nil {
					n++
				}
			}
			return float64(n)
		}))
	reg.GaugeFunc(MetricHeartbeatAge, "Age of the stalest live worker's last heartbeat.",
		func() float64 {
			return time.Duration(c.maxHeartbeatAgeNanos(time.Now())).Seconds()
		})
	return m
}

// maxHeartbeatAgeNanos is the age of the stalest live worker's last
// heartbeat — 0 with an empty fleet (nothing to be stale about).
func (c *Coordinator) maxHeartbeatAgeNanos(now time.Time) int64 {
	nowNanos := now.UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	var max int64
	for _, w := range c.workers {
		if age := nowNanos - w.lastSeen.Load(); age > max {
			max = age
		}
	}
	return max
}

// shapeLabel renders a spec's structural shape as a bounded-length,
// human-readable metric label: per-graph "type/WxS" joined by "+",
// plus the requested rank count. Unlike wire.ShapeKey (the exact
// canonical JSON used as the cache key), the label is for dashboards —
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
