package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// httpGet fetches one observability endpoint, returning status + body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestHTTPObservabilityEndpoints(t *testing.T) {
	coord, _ := testFleetOpts(t, 2, func(o *Options) {
		o.HTTPAddr = "127.0.0.1:0"
		o.SnapshotInterval = 20 * time.Millisecond
		o.SnapshotRetention = 5
	})
	base := "http://" + coord.HTTPAddr()
	if coord.HTTPAddr() == "" {
		t.Fatal("HTTPAddr empty with HTTPAddr option set")
	}

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Two jobs of one shape: a build (cache miss) then a reuse (hit).
	for i := 0; i < 2; i++ {
		if _, err := cli.Run(stencilSpec(2, 64)); err != nil {
			t.Fatal(err)
		}
	}

	// /metrics: Prometheus text including the acceptance-criteria
	// families — queue depth, per-shape cache hits, latency histogram.
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE " + MetricQueueDepth + " gauge",
		"# TYPE " + MetricJobsCompleted + " counter",
		MetricJobsCompleted + " 2",
		"# TYPE " + MetricCacheHits + " counter",
		MetricCacheHits + `{shape="stencil_1d_periodic/6x20/r2"} 1`,
		MetricCacheMisses + `{shape="stencil_1d_periodic/6x20/r2"} 1`,
		"# TYPE " + MetricJobLatency + " histogram",
		MetricJobLatency + `_bucket{le="+Inf"} 2`,
		MetricJobLatency + "_count 2",
		MetricWorkersLive + " 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// /healthz: two live workers and an empty queue is healthy.
	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var hz healthzReply
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if hz.Status != "ok" || hz.Workers != 2 || hz.QueueCap == 0 {
		t.Fatalf("/healthz = %+v", hz)
	}

	// /snapshots.json: the ring retains at most SnapshotRetention
	// samples and the newest one carries the completed-jobs counter.
	deadline := time.Now().Add(5 * time.Second)
	var sr snapshotsReply
	for {
		_, body = httpGet(t, base+"/snapshots.json")
		sr = snapshotsReply{}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("/snapshots.json decode: %v", err)
		}
		if len(sr.Snapshots) == sr.Retention {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never filled: %d of %d snapshots", len(sr.Snapshots), sr.Retention)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sr.Retention != 5 || sr.IntervalNanos != int64(20*time.Millisecond) {
		t.Fatalf("snapshot dims = %+v", sr)
	}
	last := sr.Snapshots[len(sr.Snapshots)-1]
	if last.Counters[MetricJobsCompleted] != 2 {
		t.Fatalf("latest snapshot counters = %+v", last.Counters)
	}
	if _, ok := last.Gauges[MetricWorkersLive]; !ok {
		t.Fatalf("latest snapshot gauges = %+v", last.Gauges)
	}
	if prev := sr.Snapshots[0].UnixNanos; prev >= last.UnixNanos {
		t.Fatalf("snapshots not oldest-first: %d .. %d", prev, last.UnixNanos)
	}
}

func TestHTTPHealthzDegradedWithoutWorkers(t *testing.T) {
	coord, err := Start(Options{HTTPAddr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	code, body := httpGet(t, "http://"+coord.HTTPAddr()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status %d with empty fleet: %s", code, body)
	}
	var hz healthzReply
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Reason != "no placeable workers" {
		t.Fatalf("/healthz = %+v", hz)
	}
}

// TestStatsInfoObservabilityFields checks the v6 StatsInfo additions
// end to end over the control protocol: cache hit/miss counters,
// heartbeat age, and latency percentiles all populate after real jobs.
func TestStatsInfoObservabilityFields(t *testing.T) {
	coord, _ := testFleet(t, 2)
	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.Run(stencilSpec(2, 64)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := cli.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.ConfigCacheMisses != 1 || s.ConfigCacheHits != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/1 (StatsInfo %+v)", s.ConfigCacheHits, s.ConfigCacheMisses, s)
	}
	if s.LatencyP50Nanos <= 0 || s.LatencyP99Nanos < s.LatencyP50Nanos {
		t.Fatalf("latency percentiles = p50 %d p99 %d", s.LatencyP50Nanos, s.LatencyP99Nanos)
	}
	// Heartbeat age is bounded by the test fleet's heartbeat interval
	// plus scheduling slack; with live workers it must be sane, not 0
	// forever and not minutes.
	if s.MaxHeartbeatAgeNanos < 0 || s.MaxHeartbeatAgeNanos > int(10*time.Second) {
		t.Fatalf("heartbeat age = %d ns", s.MaxHeartbeatAgeNanos)
	}
}

// TestMetricsOffDataPlane pins the instrumentation to the control
// plane: a coordinator without -http runs no collector and no HTTP
// server, and per-job metric updates are atomics — the zero-alloc
// data-plane benchmarks in internal/runtime stay the enforcement for
// the task path itself.
func TestMetricsOffDataPlane(t *testing.T) {
	coord, _ := testFleet(t, 1)
	if coord.collector != nil || coord.http != nil {
		t.Fatal("collector/http running without HTTPAddr")
	}
	if coord.HTTPAddr() != "" {
		t.Fatalf("HTTPAddr = %q without HTTP server", coord.HTTPAddr())
	}
	// The registry still exists (Stats reads its counters and percentiles), and
	// scraping it directly is allowed even without the server.
	var sb strings.Builder
	if err := coord.metrics.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), MetricWorkersLive+" 1") {
		t.Fatalf("registry scrape missing fleet gauge:\n%s", sb.String())
	}
}
