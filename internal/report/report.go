// Package report renders any taskbench run — a local backend
// comparison, an METG sweep, or a cluster/loadgen run — as either a
// human console summary or schema-stable machine-readable JSON. The
// model is deliberately flat (params, summary metrics, tables,
// latency histograms) so the figures pipeline and the bench gate can
// consume the same document the operator reads.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/metg"
	"taskbench/internal/metrics"
	"taskbench/internal/timeline"
)

// Schema identifies the JSON layout; bump only when a field changes
// meaning or disappears (additions are compatible).
const Schema = "taskbench.report/v1"

// Report is one rendered run.
type Report struct {
	Schema string `json:"schema"`
	// Kind names the producing pipeline: "run", "metg", "loadgen".
	Kind  string `json:"kind"`
	Title string `json:"title"`
	// Params are the run's identifying inputs, in display order.
	Params []Param `json:"params,omitempty"`
	// Summary is the headline metrics, in display order.
	Summary []Metric `json:"summary,omitempty"`
	// Tables carry the per-point / per-backend breakdowns.
	Tables []Table `json:"tables,omitempty"`
	// Histograms carry latency distributions with percentiles.
	Histograms []Histogram `json:"histograms,omitempty"`
}

// Param is one identifying input of the run.
type Param struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Metric is one headline number. Note carries a qualifier ("upper
// bound", "not reached") the value alone cannot express.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// Table is a rendered breakdown: all cells pre-formatted strings, so
// console and JSON show identical values.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Bucket is one histogram bucket: observations at or below LE seconds.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"` // cumulative, Prometheus-style
}

// Histogram is a latency distribution. Overflow counts observations
// past the last bucket bound — kept out of Buckets because JSON
// cannot encode +Inf. Percentiles are nearest-rank bucket bounds; for
// an empty histogram (Count 0) they are meaningless and renderers
// show "-".
type Histogram struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
	P50      float64  `json:"p50"`
	P95      float64  `json:"p95"`
	P99      float64  `json:"p99"`
}

// FromHistogramData converts a metrics snapshot into the report form.
func FromHistogramData(name, unit string, d metrics.HistogramData) Histogram {
	h := Histogram{Name: name, Unit: unit, Count: d.Count, Sum: d.Sum}
	var cum int64
	for i, b := range d.Bounds {
		cum += d.Counts[i]
		h.Buckets = append(h.Buckets, Bucket{LE: b, Count: cum})
	}
	if len(d.Counts) > len(d.Bounds) {
		h.Overflow = d.Counts[len(d.Bounds)]
	}
	if d.Count > 0 {
		h.P50 = d.Quantile(0.50)
		h.P95 = d.Quantile(0.95)
		h.P99 = d.Quantile(0.99)
	}
	return h
}

// Mode is a value of the CLIs' -report flag.
type Mode string

const (
	Console Mode = "console" // WriteConsole
	JSON    Mode = "json"    // WriteJSON
	None    Mode = "none"    // no rendering
)

// ParseMode validates a -report flag value.
func ParseMode(s string) (Mode, error) {
	switch m := Mode(s); m {
	case Console, JSON, None:
		return m, nil
	}
	return "", fmt.Errorf("-report must be console, json or none, got %q", s)
}

// Write renders the report in the given mode; None writes nothing.
func (r *Report) Write(w io.Writer, mode Mode) error {
	switch mode {
	case JSON:
		return r.WriteJSON(w)
	case Console:
		return r.WriteConsole(w)
	}
	return nil
}

// WriteJSON renders the report as indented JSON, one stable document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// --- builders -------------------------------------------------------

// FromRuns renders a local backend comparison (the taskbench CLI): one
// table row per backend's RunStats.
func FromRuns(title string, names []string, runs []core.RunStats) *Report {
	r := &Report{Schema: Schema, Kind: "run", Title: title}
	t := Table{
		Columns: []string{"backend", "elapsed", "tasks", "granularity", "GFLOP/s", "GB/s"},
	}
	for i, st := range runs {
		gf, gb := "-", "-"
		if st.Flops > 0 {
			gf = fmt.Sprintf("%.3f", st.FlopsPerSecond()/1e9)
		}
		if st.Bytes > 0 {
			gb = fmt.Sprintf("%.3f", st.BytesPerSecond()/1e9)
		}
		t.Rows = append(t.Rows, []string{
			names[i],
			st.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", st.Tasks),
			st.TaskGranularity().Round(time.Nanosecond).String(),
			gf, gb,
		})
	}
	r.Tables = []Table{t}
	if len(runs) > 0 {
		st := runs[len(runs)-1]
		r.Summary = []Metric{
			{Name: "tasks", Value: float64(st.Tasks)},
			{Name: "granularity", Value: st.TaskGranularity().Seconds(), Unit: "s"},
		}
	}
	return r
}

// FromMETG renders an METG sweep: the efficiency-vs-granularity curve
// plus the headline METG value, qualified by how it was obtained.
func FromMETG(title string, points []metg.Point, value time.Duration, kind metg.Kind, threshold float64) *Report {
	r := &Report{
		Schema: Schema,
		Kind:   "metg",
		Title:  title,
		Params: []Param{
			{Name: "threshold", Value: fmt.Sprintf("%g%%", threshold*100)},
		},
	}
	t := Table{Columns: []string{"iterations", "granularity", "efficiency"}}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Iterations),
			p.Granularity.Round(time.Nanosecond).String(),
			fmt.Sprintf("%.4f", p.Efficiency),
		})
	}
	r.Tables = []Table{t}
	m := Metric{
		Name: fmt.Sprintf("metg_%g", threshold*100),
		Unit: "s",
		Note: kind.String(),
	}
	if kind.Reached() {
		m.Value = value.Seconds()
	}
	r.Summary = []Metric{m}
	return r
}

// FromTimeline renders a cluster/loadgen run from the timeline totals,
// optionally attaching the client-observed latency histogram (nil
// when the run recorded none).
func FromTimeline(title string, tl timeline.Timeline, lat *metrics.HistogramData) *Report {
	r := &Report{
		Schema: Schema,
		Kind:   "loadgen",
		Title:  title,
	}
	if tl.Pattern != "" {
		r.Params = append(r.Params, Param{Name: "pattern", Value: tl.Pattern})
	}
	if tl.TimeScale > 0 {
		r.Params = append(r.Params, Param{Name: "time_scale", Value: fmt.Sprintf("%g", tl.TimeScale)})
	}
	if tl.Interval > 0 {
		r.Params = append(r.Params, Param{Name: "interval", Value: tl.Interval.String()})
	}
	tot := tl.Totals
	r.Summary = []Metric{
		{Name: "submitted", Value: float64(tot.Submitted)},
		{Name: "accepted", Value: float64(tot.Accepted)},
		{Name: "rejected", Value: float64(tot.Rejected)},
		{Name: "retried", Value: float64(tot.Retried)},
		{Name: "completed", Value: float64(tot.Completed)},
		{Name: "failed", Value: float64(tot.Failed)},
		{Name: "cancelled", Value: float64(tot.Cancelled)},
		{Name: "gave_up", Value: float64(tot.GaveUp)},
		{Name: "latency_p50", Value: tot.P50Millis / 1e3, Unit: "s"},
		{Name: "latency_p95", Value: tot.P95Millis / 1e3, Unit: "s"},
		{Name: "latency_p99", Value: tot.P99Millis / 1e3, Unit: "s"},
	}
	if lat != nil {
		r.Histograms = []Histogram{FromHistogramData("job_latency", "s", *lat)}
	}
	return r
}
