// Package timeline is the streaming measurement side of the load
// generator: it buckets per-job outcomes and sampled coordinator
// gauges into fixed aggregation intervals of simulated time and emits
// one row per interval — submission/outcome counts, latency
// percentiles, and fleet utilization — as CSV (streamed row by row
// while the run is live) and JSON (one self-contained document with
// run totals, written at the end).
//
// All instants are simulated offsets from the run start (the pattern
// package's Clock maps wall time to them), so a timeline recorded at
// -time-scale 60 lines up with the 60×-longer scenario it simulates.
package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"taskbench/internal/stats"
)

// Row is one aggregation interval of the run.
type Row struct {
	// Start is the interval's first simulated instant, as an offset
	// from the run start.
	Start time.Duration `json:"start_ns"`

	// Submission counts. Submitted counts every submission attempt
	// entering the wire (including resubmissions); Accepted and
	// Rejected split the coordinator's admission verdicts; Retried
	// counts client-side resubmissions of rejected jobs (back-off
	// pressure made visible).
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Retried   int `json:"retried"`

	// Outcome counts, bucketed by completion instant. Completed is
	// success; Failed is a job-level error; Cancelled covers abandoned
	// jobs; GaveUp counts rejected jobs whose resubmission budget ran
	// out — load the fleet permanently shed.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	GaveUp    int `json:"gave_up"`

	// Latency percentiles over the jobs completing (successfully or
	// not) in the interval, in simulated milliseconds from submission
	// to done.
	P50Millis float64 `json:"latency_p50_ms"`
	P95Millis float64 `json:"latency_p95_ms"`
	P99Millis float64 `json:"latency_p99_ms"`

	// Fleet gauges, averaged over the coordinator-stats samples taken
	// in the interval: control-queue depth, jobs executing on the
	// fleet, live workers, and utilization — jobs running per
	// scheduler slot, 1.0 meaning every slot busy.
	AvgQueue    float64 `json:"avg_queue"`
	AvgRunning  float64 `json:"avg_running"`
	AvgWorkers  float64 `json:"avg_workers"`
	Utilization float64 `json:"utilization"`
}

// Totals aggregates the whole run, with percentiles over every
// completion.
type Totals struct {
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Retried   int `json:"retried"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	GaveUp    int `json:"gave_up"`

	P50Millis float64 `json:"latency_p50_ms"`
	P95Millis float64 `json:"latency_p95_ms"`
	P99Millis float64 `json:"latency_p99_ms"`
}

// Timeline is the finished run: every interval row plus the totals,
// the JSON document loadgen writes.
type Timeline struct {
	Pattern   string        `json:"pattern,omitempty"`
	TimeScale float64       `json:"time_scale,omitempty"`
	Interval  time.Duration `json:"interval_ns"`
	Rows      []Row         `json:"rows"`
	Totals    Totals        `json:"totals"`
}

// bucket accumulates one interval before it is sealed into a Row.
type bucket struct {
	row       Row
	latencies []float64 // ms, jobs completing in this interval

	samples int // gauge samples averaged into the fleet columns
	queue   int
	running int
	workers int
	slotted float64 // Σ running/slots per sample
}

// Collector buckets events as they happen. All methods are safe for
// concurrent use — submissions, completions and the stats poller race
// by design. Events before offset zero clamp into the first bucket.
type Collector struct {
	interval time.Duration

	mu      sync.Mutex
	buckets map[int]*bucket
	flushed int       // buckets below this index have been sealed
	sealed  []Row     // rows already sealed by Advance, in order
	allLats []float64 // ms, every completion latency of the run
	sink    func(Row)
}

// New creates a collector with the given aggregation interval of
// simulated time (1s if not positive). sink, when non-nil, receives
// sealed rows in order as Advance and Finish flush them — the
// streaming CSV path.
func New(interval time.Duration, sink func(Row)) *Collector {
	if interval <= 0 {
		interval = time.Second
	}
	return &Collector{interval: interval, buckets: map[int]*bucket{}, sink: sink}
}

// Interval returns the aggregation interval.
func (c *Collector) Interval() time.Duration { return c.interval }

func (c *Collector) at(off time.Duration) *bucket {
	idx := 0
	if off > 0 {
		idx = int(off / c.interval)
	}
	if idx < c.flushed {
		// A straggler for an already-streamed interval: fold it into
		// the oldest open bucket rather than losing the event.
		idx = c.flushed
	}
	b := c.buckets[idx]
	if b == nil {
		b = &bucket{row: Row{Start: time.Duration(idx) * c.interval}}
		c.buckets[idx] = b
	}
	return b
}

// Submitted records one submission attempt hitting the wire.
func (c *Collector) Submitted(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.Submitted++
}

// Accepted records an admission verdict of accepted.
func (c *Collector) Accepted(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.Accepted++
}

// Rejected records an admission verdict of rejected (queue full,
// invalid spec).
func (c *Collector) Rejected(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.Rejected++
}

// Retried records a client-side resubmission of a rejected job.
func (c *Collector) Retried(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.Retried++
}

// Completed records a successful job finishing at off, latency
// measured from its submission in simulated time.
func (c *Collector) Completed(off, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(off)
	b.row.Completed++
	b.latencies = append(b.latencies, float64(latency)/float64(time.Millisecond))
}

// Failed records a job finishing with a job-level error.
func (c *Collector) Failed(off, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(off)
	b.row.Failed++
	b.latencies = append(b.latencies, float64(latency)/float64(time.Millisecond))
}

// Cancelled records a job abandoned before completion.
func (c *Collector) Cancelled(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.Cancelled++
}

// GaveUp records a rejected job dropped after exhausting its
// resubmission budget.
func (c *Collector) GaveUp(off time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(off).row.GaveUp++
}

// Sample records one coordinator-stats snapshot: control-queue depth,
// jobs running, live workers, and the scheduler slot count utilization
// is measured against.
func (c *Collector) Sample(off time.Duration, queue, running, workers, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(off)
	b.samples++
	b.queue += queue
	b.running += running
	b.workers += workers
	if slots > 0 {
		b.slotted += float64(running) / float64(slots)
	}
}

// seal converts a bucket into its final row.
func seal(b *bucket) Row {
	row := b.row
	sort.Float64s(b.latencies)
	row.P50Millis = percentile(b.latencies, 50)
	row.P95Millis = percentile(b.latencies, 95)
	row.P99Millis = percentile(b.latencies, 99)
	if b.samples > 0 {
		n := float64(b.samples)
		row.AvgQueue = float64(b.queue) / n
		row.AvgRunning = float64(b.running) / n
		row.AvgWorkers = float64(b.workers) / n
		row.Utilization = b.slotted / n
	}
	return row
}

// percentile is the nearest-rank percentile of sorted (ms); 0 when
// empty.
func percentile(sorted []float64, p float64) float64 {
	rank := stats.NearestRank(len(sorted), p/100)
	if rank == 0 {
		return 0
	}
	return sorted[rank-1]
}

// sealThrough seals every bucket with index < limit into c.sealed
// (gaps become all-zero rows, so the timeline is continuous) and
// returns the newly sealed rows. Callers hold c.mu.
func (c *Collector) sealThrough(limit int) []Row {
	var out []Row
	for c.flushed < limit {
		idx := c.flushed
		c.flushed++
		b := c.buckets[idx]
		if b == nil {
			b = &bucket{row: Row{Start: time.Duration(idx) * c.interval}}
		} else {
			delete(c.buckets, idx)
		}
		row := seal(b)
		c.allLats = append(c.allLats, b.latencies...)
		c.sealed = append(c.sealed, row)
		out = append(out, row)
	}
	return out
}

// Advance seals every interval that ended strictly before the
// simulated offset now and streams the sealed rows to the sink — the
// streaming path: call it as simulated time passes and completed rows
// flow out while the run is still live. Sealed intervals no longer
// accept events (stragglers fold into the oldest open bucket).
func (c *Collector) Advance(now time.Duration) {
	c.mu.Lock()
	out := c.sealThrough(int(now / c.interval))
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		for _, r := range out {
			sink(r)
		}
	}
}

// Finish seals everything and returns the completed timeline: every
// interval from the run start to the last event, gaps included as
// all-zero rows, plus run totals over the whole run (including rows
// already streamed by Advance). Remaining rows stream to the sink
// first. The collector must not be used after Finish.
func (c *Collector) Finish() Timeline {
	c.mu.Lock()
	last := c.flushed - 1
	for idx := range c.buckets {
		if idx > last {
			last = idx
		}
	}
	out := c.sealThrough(last + 1)
	tl := Timeline{Interval: c.interval, Rows: append([]Row{}, c.sealed...)}
	all := append([]float64(nil), c.allLats...)
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		for _, r := range out {
			sink(r)
		}
	}
	for _, row := range tl.Rows {
		tl.Totals.Submitted += row.Submitted
		tl.Totals.Accepted += row.Accepted
		tl.Totals.Rejected += row.Rejected
		tl.Totals.Retried += row.Retried
		tl.Totals.Completed += row.Completed
		tl.Totals.Failed += row.Failed
		tl.Totals.Cancelled += row.Cancelled
		tl.Totals.GaveUp += row.GaveUp
	}
	sort.Float64s(all)
	tl.Totals.P50Millis = percentile(all, 50)
	tl.Totals.P95Millis = percentile(all, 95)
	tl.Totals.P99Millis = percentile(all, 99)
	return tl
}

// CSVHeader is the column row of the CSV form, matching WriteCSVRow's
// order.
const CSVHeader = "start_s,submitted,accepted,rejected,retried,completed,failed,cancelled,gave_up,p50_ms,p95_ms,p99_ms,avg_queue,avg_running,avg_workers,utilization"

// WriteCSVRow writes one row in CSVHeader's column order. Times are
// seconds of simulated offset; latencies simulated milliseconds.
func WriteCSVRow(w io.Writer, r Row) error {
	_, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.2f,%.2f,%.2f,%.4f\n",
		r.Start.Seconds(), r.Submitted, r.Accepted, r.Rejected, r.Retried,
		r.Completed, r.Failed, r.Cancelled, r.GaveUp,
		r.P50Millis, r.P95Millis, r.P99Millis,
		r.AvgQueue, r.AvgRunning, r.AvgWorkers, r.Utilization)
	return err
}

// WriteCSV writes the whole timeline as CSV: header plus one line per
// interval.
func WriteCSV(w io.Writer, tl Timeline) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, r := range tl.Rows {
		if err := WriteCSVRow(w, r); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the timeline as one indented JSON document.
func WriteJSON(w io.Writer, tl Timeline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}
