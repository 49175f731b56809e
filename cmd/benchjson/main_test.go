package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	in := strings.NewReader(`
goos: linux
BenchmarkPlanBuild-8         	     100	   1200.5 ns/op	     320 B/op	       4 allocs/op
BenchmarkDepQuery            	 5000000	     25.0 ns/op	       0 B/op	       0 allocs/op	  12.5 tasks/s
--- FAIL: BenchmarkBroken
PASS
`)
	rep, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	pb := rep.Benchmarks["BenchmarkPlanBuild"]
	if pb.NsPerOp != 1200.5 || pb.BPerOp == nil || *pb.BPerOp != 320 || *pb.AllocsPerOp != 4 {
		t.Errorf("PlanBuild parsed wrong: %+v", pb)
	}
	dq := rep.Benchmarks["BenchmarkDepQuery"]
	if dq.Metrics["tasks/s"] != 12.5 {
		t.Errorf("custom metric lost: %+v", dq)
	}
}

func TestDiffReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	f := func(v float64) *float64 { return &v }
	oldPath := write("old.json", Report{Benchmarks: map[string]Result{
		"BenchmarkSame":   {NsPerOp: 100, AllocsPerOp: f(2)},
		"BenchmarkFaster": {NsPerOp: 200, AllocsPerOp: f(8)},
		"BenchmarkGone":   {NsPerOp: 50},
	}})
	newPath := write("new.json", Report{Benchmarks: map[string]Result{
		"BenchmarkSame":   {NsPerOp: 100, AllocsPerOp: f(2)},
		"BenchmarkFaster": {NsPerOp: 150, AllocsPerOp: f(0)},
		"BenchmarkNew":    {NsPerOp: 75},
	}})

	var out strings.Builder
	if err := diff(&out, oldPath, newPath, -1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkFaster", "-25.0%", "8 → 0",
		"BenchmarkSame", "+0.0%",
		"BenchmarkGone", "gone",
		"BenchmarkNew", "new",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

func TestDiffRejectsEmptyReport(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"benchmarks":{}}`), 0o644)
	if err := diff(os.Stdout, empty, empty, -1); err == nil {
		t.Error("diff accepted an empty report")
	}
}

// writeReport marshals a report to a file in dir for the gate tests.
func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateTripsOnRegression pins the CI tripwire contract: a synthetic
// >10% ns/op regression must turn the diff into a nonzero exit, naming
// the offender, while benchmarks inside the threshold pass.
func TestGateTripsOnRegression(t *testing.T) {
	dir := t.TempDir()
	f := func(v float64) *float64 { return &v }
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: map[string]Result{
		"BenchmarkHot":    {NsPerOp: 100, AllocsPerOp: f(0)},
		"BenchmarkNoisy":  {NsPerOp: 100, AllocsPerOp: f(0)},
		"BenchmarkCustom": {NsPerOp: 40},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: map[string]Result{
		"BenchmarkHot":    {NsPerOp: 115, AllocsPerOp: f(0)}, // +15%: trips a 10% gate
		"BenchmarkNoisy":  {NsPerOp: 109, AllocsPerOp: f(0)}, // +9%: inside the gate
		"BenchmarkCustom": {NsPerOp: 40},
	}})

	var out strings.Builder
	err := diff(&out, oldPath, newPath, 10)
	if err == nil {
		t.Fatalf("gate passed a +15%% regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GATE: BenchmarkHot") {
		t.Errorf("gate output does not name the offender:\n%s", out.String())
	}
	if strings.Contains(out.String(), "GATE: BenchmarkNoisy") {
		t.Errorf("gate tripped on a within-threshold delta:\n%s", out.String())
	}

	out.Reset()
	if err := diff(&out, oldPath, newPath, 20); err != nil {
		t.Errorf("20%% gate tripped on a +15%% delta: %v\n%s", err, out.String())
	}
}

// TestGateTripsOnAllocIncrease pins the zero-alloc contract: any
// allocs/op increase trips the gate regardless of the ns/op threshold,
// while appearing/vanishing benchmarks never do.
func TestGateTripsOnAllocIncrease(t *testing.T) {
	dir := t.TempDir()
	f := func(v float64) *float64 { return &v }
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: map[string]Result{
		"BenchmarkZeroAlloc": {NsPerOp: 100, AllocsPerOp: f(0)},
		"BenchmarkGone":      {NsPerOp: 500, AllocsPerOp: f(9)},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: map[string]Result{
		"BenchmarkZeroAlloc": {NsPerOp: 100, AllocsPerOp: f(1)}, // same speed, new alloc
		"BenchmarkNew":       {NsPerOp: 500, AllocsPerOp: f(9)},
	}})

	var out strings.Builder
	err := diff(&out, oldPath, newPath, 10)
	if err == nil {
		t.Fatalf("gate passed an allocs/op increase:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GATE: BenchmarkZeroAlloc") ||
		!strings.Contains(out.String(), "0 → 1") {
		t.Errorf("gate output does not name the alloc regression:\n%s", out.String())
	}
	if strings.Contains(out.String(), "GATE: BenchmarkGone") || strings.Contains(out.String(), "GATE: BenchmarkNew") {
		t.Errorf("gate tripped on an appearing/vanishing benchmark:\n%s", out.String())
	}
}

// TestGateHoldsNonZeroAllocsToPercent pins the other half of the
// allocs rule: a benchmark that already allocates (a plan build's
// thousands of objects) is held to the -gate percentage, not tripped by
// one extra object, while a zero-alloc baseline still trips on one.
func TestGateHoldsNonZeroAllocsToPercent(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, c := range []struct {
		name     string
		old, new float64
		trips    bool
	}{
		{"zero_baseline_plus_one", 0, 1, true},
		{"nonzero_within_gate", 10000, 10900, false},
		{"nonzero_beyond_gate", 10000, 11100, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: map[string]Result{
				"BenchmarkX": {NsPerOp: 100, AllocsPerOp: f(c.old)},
			}})
			newPath := writeReport(t, dir, "new.json", Report{Benchmarks: map[string]Result{
				"BenchmarkX": {NsPerOp: 100, AllocsPerOp: f(c.new)},
			}})
			var out strings.Builder
			err := diff(&out, oldPath, newPath, 10)
			if tripped := err != nil; tripped != c.trips {
				t.Errorf("allocs/op %.0f → %.0f at -gate 10: tripped=%v, want %v\n%s",
					c.old, c.new, tripped, c.trips, out.String())
			}
		})
	}
}

// TestGateDisjointReports pins the gate to the intersection of the two
// reports: with fully disjoint benchmark sets — a baseline from before a
// wholesale benchmark rename, say — there is nothing to compare, so the
// diff renders only gone/new rows and the gate never trips, at any
// threshold.
func TestGateDisjointReports(t *testing.T) {
	dir := t.TempDir()
	f := func(v float64) *float64 { return &v }
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: map[string]Result{
		"BenchmarkOldOnlyFast": {NsPerOp: 10, AllocsPerOp: f(0)},
		"BenchmarkOldOnlySlow": {NsPerOp: 9999, AllocsPerOp: f(50)},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: map[string]Result{
		"BenchmarkNewOnlyFast": {NsPerOp: 10, AllocsPerOp: f(0)},
		"BenchmarkNewOnlySlow": {NsPerOp: 9999, AllocsPerOp: f(50)},
	}})

	for _, gatePct := range []float64{-1, 0, 10} {
		var out strings.Builder
		if err := diff(&out, oldPath, newPath, gatePct); err != nil {
			t.Errorf("gate %v tripped on disjoint reports: %v\n%s", gatePct, err, out.String())
		}
		if strings.Contains(out.String(), "GATE:") {
			t.Errorf("gate %v emitted a GATE line with nothing comparable:\n%s", gatePct, out.String())
		}
		for _, name := range []string{"BenchmarkOldOnlyFast", "BenchmarkNewOnlyFast"} {
			if !strings.Contains(out.String(), name) {
				t.Errorf("diff table dropped %s:\n%s", name, out.String())
			}
		}
	}
}

// TestGateSubsetBaseline pins the asymmetric case: benchmarks present
// only in the new report ride along un-gated, while the shared subset is
// still compared — adding benchmarks must not require refreshing the
// baseline, but cannot mask a real regression either.
func TestGateSubsetBaseline(t *testing.T) {
	dir := t.TempDir()
	f := func(v float64) *float64 { return &v }
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsPerOp: 100, AllocsPerOp: f(0)},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: map[string]Result{
		"BenchmarkShared": {NsPerOp: 150, AllocsPerOp: f(0)}, // +50%: trips
		"BenchmarkAdded":  {NsPerOp: 5000, AllocsPerOp: f(99)},
	}})

	var out strings.Builder
	if err := diff(&out, oldPath, newPath, 10); err == nil {
		t.Fatalf("gate passed a +50%% regression on the shared subset:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GATE: BenchmarkShared") {
		t.Errorf("gate output does not name the shared offender:\n%s", out.String())
	}
	if strings.Contains(out.String(), "GATE: BenchmarkAdded") {
		t.Errorf("gate tripped on a benchmark with no baseline:\n%s", out.String())
	}
}

// TestRunFlagValidation pins the CLI surface: -gate without -diff,
// malformed values and unknown flags are refused rather than ignored.
func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-gate", "10"},
		{"-diff", "a.json", "b.json", "-gate", "0"},
		{"-diff", "a.json", "b.json", "-gate", "ten"},
		{"-diff", "a.json", "b.json", "-match", "Hot"},
		{"-gate"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}
