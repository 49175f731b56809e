package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cache_hits_total", "hits", "shape")
	v.With("stencil/4x4").Add(3)
	v.With("trivial/2x1").Inc()
	v.With("stencil/4x4").Inc()
	if got := v.Total(); got != 5 {
		t.Fatalf("vec total = %d, want 5", got)
	}
	kids := v.snapshotChildren()
	if len(kids) != 2 || kids[0].label != "stencil/4x4" || kids[0].value != 4 {
		t.Fatalf("unexpected children: %+v", kids)
	}
}

func TestHistogramEmptyQuantileIsZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", nil)
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	// The contract renderers rely on: an empty histogram reports
	// Count()==0 and Quantile==0, and the renderer — not the
	// histogram — substitutes "-".
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistogramSingleSamplePercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	// One sample: every quantile is that sample's bucket bound.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0.1 {
			t.Fatalf("Quantile(%v) = %v, want 0.1", q, got)
		}
	}
	if h.Count() != 1 || h.Sum() != 0.05 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestHistogramObserveBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 2, 4})
	h.Observe(1)   // exactly on a bound → that bucket (le semantics)
	h.Observe(1.5) // between bounds → next bound's bucket
	h.Observe(9)   // past the last bound → overflow
	d := h.Snapshot()
	want := []int64{1, 1, 0, 1}
	for i, w := range want {
		if d.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", d.Counts, want)
		}
	}
	// Overflow observations can only report the last finite bound.
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) with overflow = %v, want 4", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("taskbench_jobs_completed_total", "Jobs completed.")
	c.Add(3)
	g := r.Gauge("taskbench_queue_depth", "Queue depth.")
	g.Set(2)
	r.GaugeFunc("taskbench_workers_live", "Live workers.", func() float64 { return 4 })
	v := r.CounterVec("taskbench_config_cache_hits_total", "Cache hits by shape.", "shape")
	v.With(`odd"shape\n`).Add(2)
	h := r.Histogram("taskbench_job_latency_seconds", "Job latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP taskbench_jobs_completed_total Jobs completed.\n# TYPE taskbench_jobs_completed_total counter\ntaskbench_jobs_completed_total 3\n",
		"# TYPE taskbench_queue_depth gauge\ntaskbench_queue_depth 2\n",
		"# TYPE taskbench_workers_live gauge\ntaskbench_workers_live 4\n",
		`taskbench_config_cache_hits_total{shape="odd\"shape\\n"} 2`,
		"taskbench_job_latency_seconds_bucket{le=\"0.01\"} 1\n",
		"taskbench_job_latency_seconds_bucket{le=\"0.1\"} 2\n",
		"taskbench_job_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"taskbench_job_latency_seconds_sum 5.055\n",
		"taskbench_job_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Families must be sorted by name for stable scrapes.
	iHits := strings.Index(out, "taskbench_config_cache_hits_total")
	iLat := strings.Index(out, "taskbench_job_latency_seconds")
	iQueue := strings.Index(out, "taskbench_queue_depth")
	if !(iHits < iLat && iLat < iQueue) {
		t.Errorf("families not sorted: hits=%d lat=%d queue=%d", iHits, iLat, iQueue)
	}
}

func TestSnapshotFlattensEverything(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(1)
	r.CounterVec("b_total", "", "shape").With("s1").Add(2)
	r.Gauge("g", "").Set(3)
	r.GaugeFunc("gf", "", func() float64 { return 4.5 })
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)

	s := r.TakeSnapshot(time.Unix(0, 42))
	if s.UnixNanos != 42 {
		t.Fatalf("unix_nanos = %d", s.UnixNanos)
	}
	if s.Counters["a_total"] != 1 || s.Counters["b_total{shape=s1}"] != 2 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if s.Gauges["g"] != 3 || s.Gauges["gf"] != 4.5 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	hd, ok := s.Histograms["h_seconds"]
	if !ok || hd.Count != 1 || hd.Counts[0] != 1 {
		t.Fatalf("histograms: %+v", s.Histograms)
	}
}

func TestRingRetentionBounds(t *testing.T) {
	r := NewRing(3)
	for i := int64(1); i <= 5; i++ {
		r.Add(Snapshot{UnixNanos: i})
	}
	got := r.Snapshots()
	if len(got) != 3 || r.Len() != 3 {
		t.Fatalf("retained %d snapshots, want 3", len(got))
	}
	for i, want := range []int64{3, 4, 5} {
		if got[i].UnixNanos != want {
			t.Fatalf("ring order = %v", got)
		}
	}
}

func TestCollectorSamplesAndStops(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(9)
	c := StartCollector(r, 5*time.Millisecond, 10)
	defer c.Stop()

	// The first snapshot is immediate: a fresh coordinator never
	// serves an empty ring.
	if c.Ring().Len() == 0 {
		t.Fatal("no immediate snapshot on start")
	}
	deadline := time.After(2 * time.Second)
	for c.Ring().Len() < 3 {
		select {
		case <-deadline:
			t.Fatalf("collector stuck at %d snapshots", c.Ring().Len())
		case <-time.After(time.Millisecond):
		}
	}
	c.Stop()
	c.Stop() // idempotent
	snaps := c.Ring().Snapshots()
	if snaps[0].Gauges["g"] != 9 {
		t.Fatalf("snapshot gauges = %+v", snaps[0].Gauges)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.5, 1})
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
				c.Inc()
				v.With("x").Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 || v.Total() != 8000 {
		t.Fatalf("lost updates: hist=%d counter=%d vec=%d", h.Count(), c.Value(), v.Total())
	}
	if sum := h.Sum(); sum != 2000 {
		t.Fatalf("sum = %v, want 2000", sum)
	}
}
