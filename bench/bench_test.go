package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"taskbench/internal/metg"
)

// curve pairs the bench's estimator input with the same curve as
// metg.METG takes it.
func curve(gran, eff []float64) []metg.Point {
	pts := make([]metg.Point, len(gran))
	for k := range gran {
		pts[k] = metg.Point{Granularity: time.Duration(gran[k]), Efficiency: eff[k]}
	}
	return pts
}

func TestIsotonicMETG(t *testing.T) {
	gran := []float64{1600, 800, 400, 200, 100, 50}
	cases := []struct {
		name string
		eff  []float64
		want float64
		kind metg.Kind
		// sameAsMETG: on a monotone curve the two-point estimator and the
		// isotonic one must agree on the value too.
		sameAsMETG bool
	}{
		// 0.7 at 800 and 0.4 at 400: two thirds of the way down in log x.
		{"known crossing", []float64{0.9, 0.7, 0.4, 0.3, 0.2, 0.1}, 800 * math.Pow(2, -2.0/3), metg.Measured, true},
		// The raw curve crosses 0.5 three times (down, up, down). Pooling
		// 0.44 and 0.58 gives 0.51, 0.51: one crossing, between 200 (0.51)
		// and 100 (0.47), a quarter of the way down.
		{"wobble", []float64{0.9, 0.58, 0.44, 0.58, 0.47, 0.2}, 200 * math.Pow(2, -0.25), metg.Measured, false},
		{"never reached", []float64{0.4, 0.3, 0.2, 0.1, 0.05, 0.01}, 0, metg.NotReached, true},
		{"always above", []float64{0.99, 0.95, 0.9, 0.8, 0.7, 0.6}, 50, metg.UpperBound, true},
	}
	for _, c := range cases {
		got, kind := isotonicMETG(gran, c.eff, 0.5)
		if kind != c.kind || math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("%s: isotonicMETG = %v (%v), want %v (%v)", c.name, got, kind, c.want, c.kind)
		}
		ref, refKind := metg.METG(curve(gran, c.eff), 0.5)
		if refKind != kind {
			t.Errorf("%s: kind %v, metg.METG says %v", c.name, kind, refKind)
		}
		if c.sameAsMETG && math.Abs(float64(ref)-got) > 1 { // metg.METG rounds to whole ns
			t.Errorf("%s: %v, metg.METG says %v", c.name, got, ref)
		}
	}
}

func TestIsotonicFitIsNonIncreasingAndKeepsTheMean(t *testing.T) {
	y := []float64{0.9, 0.58, 0.44, 0.58, 0.47, 0.5, 0.2}
	fit := isotonicNonIncreasing(y)
	var sumY, sumFit float64
	for k := range y {
		sumY, sumFit = sumY+y[k], sumFit+fit[k]
		if k > 0 && fit[k] > fit[k-1] {
			t.Errorf("fit rises at %d: %v", k, fit)
		}
	}
	if math.Abs(sumY-sumFit) > 1e-12 {
		t.Errorf("fit changed the sum: %v -> %v", sumY, sumFit)
	}
}

// A host that runs at half speed over the middle third of a run doubles
// every wall-clock timing taken there — and the reference loop's cost
// with it, so the ref-clock values, and every aggregate of them, stay
// where they were.
func TestRefClockCancelsAHostSlowdown(t *testing.T) {
	const n, trueCost = 90, 1000.0
	slow := func(k int) float64 { // host slowdown while sample k runs
		if k >= n/3 && k < 2*n/3 {
			return 2
		}
		return 1
	}
	var raw, ref []float64
	for k := 0; k < n; k++ {
		// The reference samples sit at the bracket's two ends, where the
		// host may be in the neighbouring sample's state; the timed call
		// spends half its time in each.
		before, after := refNominalNS*slow(k-1), refNominalNS*slow(k)
		wall := trueCost * (slow(k-1) + slow(k)) / 2
		raw = append(raw, wall)
		ref = append(ref, wall*refScale(refNominalNS, before, after))
	}
	rawSum, refSum := summarize(raw), summarize(ref)
	if rawSum.Q3 < 1.9*trueCost {
		t.Fatalf("the synthetic slowdown did not reach the wall-clock quartile: %+v", rawSum)
	}
	for name, got := range map[string]float64{
		"q1": refSum.Q1, "median": refSum.Median, "q3": refSum.Q3,
		"p95": percentileOf(ref, 95), "p99": percentileOf(ref, 99),
	} {
		if math.Abs(got-trueCost) > 0.02*trueCost {
			t.Errorf("ref-clock %s = %v, want %v within 2%%", name, got, trueCost)
		}
	}
}

// A host whose loopback path is 30% dearer over the middle third of a
// run, its arithmetic as fast as ever, lengthens the overhead part of
// every job there and the loopback ruler with it; priced on two rulers,
// the jobs read the same throughout, whatever share of them is compute.
func TestTwoRulersCancelADearLoopbackPhase(t *testing.T) {
	const n, compute, overhead = 90, 600.0, 400.0
	dear := func(k int) float64 {
		if k >= n/3 && k < 2*n/3 {
			return 1.3
		}
		return 1
	}
	for _, hostSpeed := range []float64{1, 1.5} { // and a host slower all round
		var ref, oneRuler []float64
		for k := 0; k < n; k++ {
			wall := hostSpeed * (compute + overhead*dear(k))
			by := factors{
				compute:  refScale(refNominalNS, refNominalNS*hostSpeed, refNominalNS*hostSpeed),
				overhead: refScale(loopNominalNS, loopNominalNS*hostSpeed*dear(k), loopNominalNS*hostSpeed*dear(k)),
			}
			ref = append(ref, by.refClock(wall, compute))
			oneRuler = append(oneRuler, factors{by.compute, by.compute}.refClock(wall, compute))
		}
		if q3 := summarize(oneRuler).Q3; q3 < compute+1.25*overhead {
			t.Fatalf("the dear phase did not reach the one-ruler quartile: %v", q3)
		}
		for _, got := range []float64{summarize(ref).Q1, summarize(ref).Median, summarize(ref).Q3, percentileOf(ref, 99)} {
			if math.Abs(got-(compute+overhead)) > 1e-9*(compute+overhead) {
				t.Errorf("host x%v: two-ruler value %v, want %v", hostSpeed, got, compute+overhead)
			}
		}
	}
	// With no compute inside, the timing goes by the overhead ruler alone.
	if got := (factors{2, 0.5}).refClock(100, 0); got != 50 {
		t.Errorf("refClock(100, 0) with overhead factor 0.5 = %v, want 50", got)
	}
}

func TestNearestRankPercentiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {75, 8}, {90, 9}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	unsorted := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := summarize(unsorted); got != (summary{3, 5, 8, 10}) {
		t.Errorf("summarize = %+v, want quartiles 3 5 8 of 10", got)
	}
	if unsorted[0] != 9 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestLadder(t *testing.T) {
	for _, w := range workloads {
		l := w.ladder()
		if l[0] != w.topGrain || l[len(l)-1] != 1 {
			t.Errorf("%s: ladder runs %d..%d, want %d..1", w.Name, l[0], l[len(l)-1], w.topGrain)
		}
		hasOp := false
		for k, v := range l {
			hasOp = hasOp || v == w.opGrain
			if k > 0 && (v >= l[k-1] || float64(l[k-1])/float64(v) > 2) {
				t.Errorf("%s: ladder step %d -> %d", w.Name, l[k-1], v)
			}
		}
		if !hasOp {
			t.Errorf("%s: ladder %v misses the operating grain %d", w.Name, l, w.opGrain)
		}
	}
	// Ten doublings at two points each plus the end point, less one:
	// 2/sqrt(2) rounds to 1, which is already there.
	if n := len(workloadByName("dag_stencil").ladder()); n != 20 {
		t.Errorf("two points per doubling from 1024 to 1 is 20 points, got %d", n)
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	var wall time.Duration // a stopwatch of the test's own, outside the spans
	for job := 1; job <= 3; job++ {
		start := time.Now()
		tr.do("job", job, func() {
			tr.do("reset", job, func() { time.Sleep(200 * time.Microsecond) })
			tr.do("run", job, func() { time.Sleep(500 * time.Microsecond) })
		})
		wall += time.Since(start)
	}
	tr.do("core.depquery", -1, func() {})
	tr.setScale(factors{0.5, 0.25})
	tr.finish()
	for k, s := range tr.spans {
		var children int64
		for _, c := range tr.spans {
			if int(c.Parent) == k {
				children += c.End - c.Start
			}
		}
		if s.Self != s.End-s.Start-children || s.Self < 0 {
			t.Errorf("span %d %s: self %d, duration %d, children %d", k, s.Name, s.Self, s.End-s.Start, children)
		}
		if s.Scale != 0.5 || s.ScaleOverhead != 0.25 {
			t.Errorf("span %d %s: scales %v %v, want 0.5 0.25", k, s.Name, s.Scale, s.ScaleOverhead)
		}
	}
	if cover := tr.jobCoverage(wall); math.Abs(cover-1) > 0.01 {
		t.Errorf("job self + children cover %v of the stopwatch's job wall, want 1 within 1%%", cover)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTableIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q has characters outside [A-Za-z0-9_.-] or is too long", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		check("metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.15 {
			t.Errorf("%s: bound %v, want in (0, 0.15]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%v, largest %v)", setupBound, maxBound)
	}
	for _, m := range perLayer {
		check("metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Note == "" {
			t.Errorf("%s: no note on what it is or what it should move", m.Name)
		}
	}
}

// BENCHMARK.json at the root of the repository is generated from the
// tables (bash bench/run.sh -manifest > BENCHMARK.json); this fails
// when the two drift apart.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with the metric table; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}
