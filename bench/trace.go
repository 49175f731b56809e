package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call from the bench into a layer. Times are wall-clock
// nanoseconds since the run began; Scale converts arithmetic inside
// them to ref-clock and ScaleOverhead the rest (the two are equal
// unless the workload has a loopback ruler, clock.go).
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
	Parent int32   `json:"parent"` // index of the enclosing span, -1 at top level
	Job    int32   `json:"job"`    // spans of one job share it; -1 for a layer probe
	Self   int64   `json:"self"`   // End-Start minus the part the children cover
	Scale  float64 `json:"scale"`
	// ScaleOverhead differs from Scale only under a loopback ruler.
	ScaleOverhead float64 `json:"scale_overhead"`
}

// tracer records spans in memory, from the bench's own files only, and
// writes them out when the run ends.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   int32 // innermost open span, -1 when none
	scaled int   // spans[:scaled] already carry their Scale
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14), open: -1}
}

// reset drops what the warm-up recorded.
func (t *tracer) reset() { t.spans, t.open, t.scaled = t.spans[:0], -1, 0 }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, job int, fn func()) time.Duration {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Job: int32(job)})
	t.open = id
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	s := &t.spans[id]
	s.Start, s.End = int64(start), int64(end)
	t.open = s.Parent
	return end - start
}

// setScale stamps every span recorded since the previous call with the
// bracket's ref-clock factors.
func (t *tracer) setScale(by factors) {
	for k := t.scaled; k < len(t.spans); k++ {
		t.spans[k].Scale, t.spans[k].ScaleOverhead = by.compute, by.overhead
	}
	t.scaled = len(t.spans)
}

// finish computes self times. Children are sequential, so a span's
// self time is its duration minus the sum of its children's.
func (t *tracer) finish() {
	for k := range t.spans {
		t.spans[k].Self = t.spans[k].End - t.spans[k].Start
	}
	for k := range t.spans {
		if p := t.spans[k].Parent; p >= 0 {
			t.spans[p].Self -= t.spans[k].End - t.spans[k].Start
		}
	}
}

// jobCoverage returns, over all job spans, (self + children) / wall,
// where wall is the stopwatch total the caller kept beside the spans.
func (t *tracer) jobCoverage(wall time.Duration) float64 {
	var covered int64
	for k := range t.spans {
		s := &t.spans[k]
		if s.Name == "job" {
			covered += s.Self
		} else if s.Parent >= 0 && t.spans[s.Parent].Name == "job" {
			covered += s.End - s.Start
		}
	}
	return float64(covered) / float64(wall)
}

// write stores the run's description and its spans as one JSON document.
func (t *tracer) write(path string, run map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Run   map[string]any `json:"run"`
		Spans []span         `json:"spans"`
	}{run, t.spans})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
