package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLines(t *testing.T) {
	res, err := parse(strings.NewReader(`
goos: linux
BenchmarkPlanBuild-8         	     100	   1200.5 ns/op	     320 B/op	       4 allocs/op
BenchmarkDepQuery            	 5000000	     25.0 ns/op	       0 B/op	       0 allocs/op	  12.5 tasks/s
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{{"BenchmarkPlanBuild-8", 1200.5, 4}, {"BenchmarkDepQuery", 25, 0}}
	if len(res) != len(want) || res[0] != want[0] || res[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", res, want)
	}
}

// newRow builds a row whose base reads 100 ns/op in every pair and
// whose head reads 100·ratio, with the given allocs/op per run.
func newRow(ratios []float64, baseAllocs, headAllocs []float64) *row {
	r := &row{}
	for p, x := range ratios {
		r.ns[0] = append(r.ns[0], 100)
		r.ns[1] = append(r.ns[1], 100*x)
		r.allocs[0] = append(r.allocs[0], baseAllocs[p%len(baseAllocs)])
		r.allocs[1] = append(r.allocs[1], headAllocs[p%len(headAllocs)])
	}
	return r
}

// planBuildIdentical is BenchmarkPlanBuild/build's per-pair head/base
// ratios from two byte-identical binaries, measured on a noisy 2-CPU VM.
var planBuildIdentical = []float64{0.52, 1.89, 0.97, 0.89, 0.96, 0.92, 0.98, 1.58, 1.70, 1.61}

func TestIdenticalBinariesDoNotTrip(t *testing.T) {
	if why := newRow(planBuildIdentical, []float64{0}, []float64{0}).trips(); len(why) > 0 {
		t.Errorf("identical binaries tripped: %v", why)
	}
}

func TestFifteenPercentSlowerTrips(t *testing.T) {
	slow := make([]float64, len(planBuildIdentical))
	for p, x := range planBuildIdentical {
		slow[p] = x * 1.15
	}
	why := newRow(slow, []float64{0}, []float64{0}).trips()
	if len(why) != 1 || !strings.Contains(why[0], "ns/op") {
		t.Errorf("the identical series × 1.15 gave %v, want one ns/op trip", why)
	}
}

func TestAllocJitterDoesNotTrip(t *testing.T) {
	even := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		name       string
		base, head []float64
	}{
		{"plan_build", []float64{64553, 64554}, []float64{64554, 64553}},
		{"steal", []float64{119, 189, 140, 163}, []float64{189, 125, 176, 119}},
	} {
		if why := newRow(even, c.base, c.head).trips(); len(why) > 0 {
			t.Errorf("%s: allocs %v vs %v tripped: %v", c.name, c.base, c.head, why)
		}
	}
}

// TestNewAllocationTrips pins the zero-alloc contract through the
// report: a row that allocates nothing on base and one object per op on
// head trips the gate, while rows seen on one side only never do.
func TestNewAllocationTrips(t *testing.T) {
	even := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	gone, added := &row{}, &row{}
	gone.ns[0], gone.allocs[0] = []float64{500, 500}, []float64{9, 9}
	added.ns[1], added.allocs[1] = []float64{500, 500}, []float64{9, 9}
	rows := map[string]*row{
		"BenchmarkZeroAlloc": newRow(even, []float64{0}, []float64{1}),
		"BenchmarkGone":      gone,
		"BenchmarkNew":       added,
	}
	var out strings.Builder
	if err := report(&out, rows, []string{"BenchmarkZeroAlloc", "BenchmarkGone", "BenchmarkNew"}); err == nil {
		t.Fatalf("the gate passed 0 → 1 allocs/op:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GATE: BenchmarkZeroAlloc: allocs/op 0 → 1") {
		t.Errorf("report does not name the new allocation:\n%s", out.String())
	}
	if strings.Contains(out.String(), "GATE: BenchmarkGone") || strings.Contains(out.String(), "GATE: BenchmarkNew") {
		t.Errorf("a row seen on one side only tripped:\n%s", out.String())
	}
}

// TestAllocsHeldToBaseSpread pins the allocation rule on rows that
// already allocate: a head inside the base runs' spread passes, one
// above every base run trips, and a zero-alloc base still trips on one
// object.
func TestAllocsHeldToBaseSpread(t *testing.T) {
	even := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		name       string
		base, head []float64
		trips      bool
	}{
		{"zero_baseline_plus_one", []float64{0}, []float64{1}, true},
		{"nonzero_within_gate", []float64{10000, 10002}, []float64{10001, 10002}, false},
		{"nonzero_beyond_gate", []float64{10000, 10002}, []float64{10003, 10004}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			why := newRow(even, c.base, c.head).trips()
			if tripped := len(why) > 0; tripped != c.trips {
				t.Errorf("allocs/op %v → %v: tripped=%v, want %v (%v)", c.base, c.head, tripped, c.trips, why)
			}
			if c.trips && (len(why) != 1 || !strings.Contains(why[0], "allocs/op")) {
				t.Errorf("allocs/op %v → %v gave %v, want one allocs/op trip", c.base, c.head, why)
			}
		})
	}
}

// TestOneSidedRowListedNotTripped pins disjoint sides: with no row on
// both — a wholesale benchmark rename, say — there is nothing to
// compare, so every row is listed as one-sided and the gate passes.
func TestOneSidedRowListedNotTripped(t *testing.T) {
	old, added := &row{}, &row{}
	old.ns[0], old.allocs[0] = []float64{10, 10, 10}, []float64{0, 0, 0}
	added.ns[1], added.allocs[1] = []float64{5000, 5000}, []float64{99, 99}
	var out strings.Builder
	if err := report(&out, map[string]*row{"BenchmarkOld": old, "BenchmarkNew": added}, []string{"BenchmarkOld", "BenchmarkNew"}); err != nil {
		t.Errorf("one-sided rows tripped the gate: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "GATE:") {
		t.Errorf("report has a GATE line with nothing comparable:\n%s", out.String())
	}
	for _, want := range []string{"one side only: 3 base, 0 head runs", "one side only: 0 base, 2 head runs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report does not list %q:\n%s", want, out.String())
		}
	}
}

// TestSharedRowGatedBesideHeadOnlyRow pins the asymmetric case: a row
// new on head rides along ungated, while a row on both sides is still
// compared — adding a benchmark cannot mask a real regression.
func TestSharedRowGatedBesideHeadOnlyRow(t *testing.T) {
	slow := []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}
	added := &row{}
	added.ns[1], added.allocs[1] = []float64{5000, 5000}, []float64{99, 99}
	rows := map[string]*row{"BenchmarkShared": newRow(slow, []float64{0}, []float64{0}), "BenchmarkAdded": added}
	var out strings.Builder
	if err := report(&out, rows, []string{"BenchmarkShared", "BenchmarkAdded"}); err == nil {
		t.Fatalf("the gate passed a 1.5x slower shared row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GATE: BenchmarkShared: ns/op") {
		t.Errorf("report does not name the shared row:\n%s", out.String())
	}
	if strings.Contains(out.String(), "GATE: BenchmarkAdded") {
		t.Errorf("a head-only row tripped:\n%s", out.String())
	}
}

func TestFailedRunNamesRow(t *testing.T) {
	out := []byte("--- FAIL: BenchmarkX/sub\n    x_test.go:7: boom\n--- FAIL: BenchmarkX\nFAIL\n")
	if _, err := collect("pkg BenchmarkX", out, errors.New("exit status 1")); err == nil || !strings.Contains(err.Error(), "BenchmarkX/sub failed") {
		t.Errorf("a --- FAIL line gave %v, want an error naming BenchmarkX/sub", err)
	}
	if _, err := collect("pkg BenchmarkY", []byte("panic: test timed out\n"), errors.New("exit status 2")); err == nil || !strings.Contains(err.Error(), "pkg BenchmarkY") {
		t.Errorf("a non-zero exit gave %v, want an error naming BenchmarkY", err)
	}
}

// TestGateEndToEnd drives the whole command over a throwaway git
// repository: a base that does not resolve is refused, and a benchmark
// that passes on the base but fails on the working tree fails the gate
// with the side and the row named.
func TestGateEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not on PATH")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	const bench = "package x\n\nimport \"testing\"\n\nfunc BenchmarkX(b *testing.B) {\n\tb.Run(\"sub\", func(b *testing.B) {\n\t\tfor i := 0; i < b.N; i++ {\n\t\t}\n\t\t%s\n\t})\n}\n"
	write("go.mod", "module x\n\ngo 1.21\n")
	write("x_test.go", strings.Replace(bench, "%s", "", 1))
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "base")

	var out strings.Builder
	if err := gate("no-such-rev", dir, &out); err == nil || !strings.Contains(err.Error(), "no-such-rev") {
		t.Errorf("an unresolvable base gave %v, want an error naming it", err)
	}
	write("x_test.go", strings.Replace(bench, "%s", `b.Fatal("boom")`, 1))
	err := gate("HEAD", dir, &out)
	if err == nil || !strings.Contains(err.Error(), "head: BenchmarkX/sub failed") {
		t.Errorf("a benchmark failing on head gave %v, want an error naming head and BenchmarkX/sub", err)
	}
	raw, _ := os.ReadFile(filepath.Join(dir, "benchgate-base.txt"))
	if !strings.Contains(string(raw), "BenchmarkX/sub") {
		t.Errorf("base output not kept:\n%s", raw)
	}
}
