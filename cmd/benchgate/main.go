// Command benchgate is the CI perf gate: every Go benchmark in the
// module, a base revision against the working tree, in alternating
// pairs on one machine.
//
//	go run ./cmd/benchgate <base-rev>
//
// The base is extracted with git archive. Each side's test binaries are
// built once, for every package with a Benchmark function; each
// top-level benchmark then runs once per side per pair, the side that
// goes first alternating, at -benchtime 100ms -benchmem and the default
// GOMAXPROCS. Raw output goes to benchgate-{base,head}.txt.
//
// A row (one benchmark output line) trips when the median of its
// per-pair head/base ns/op ratios exceeds maxRatio and head is slower
// in at least minSlower pairs, or when every head run allocates more
// per op than every base run. A row seen on one side only is listed but
// never trips. A base that cannot be resolved or built, and a benchmark
// that fails on either side, are errors.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"taskbench/internal/stats"
)

const (
	pairs     = 10
	maxRatio  = 1.10
	minSlower = 8
	benchtime = "100ms"
	// runTimeout bounds one run of one top-level benchmark, so a
	// benchmark that wedges fails the gate instead of holding the runner.
	runTimeout = 2 * time.Minute
)

// sides names the two sides; every [2] array below is indexed the same.
var sides = [2]string{"base", "head"}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate <base-rev>")
		os.Exit(2)
	}
	if err := gate(os.Args[1], ".", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// gate runs the pairs of base against the checkout at head and writes
// the verdict table to w. It fails if any row trips.
func gate(base, head string, w io.Writer) error {
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	roots := [2]string{filepath.Join(tmp, "base"), head}
	tarball := filepath.Join(tmp, "base.tar")
	if _, err := command(head, "git", "archive", "--prefix=base/", "-o", tarball, base); err != nil {
		return err
	}
	if _, err := command(tmp, "tar", "-xf", tarball); err != nil {
		return err
	}
	var bins [2]map[string]*testBin
	var raw [2]*os.File
	for i, name := range sides {
		if raw[i], err = os.Create(filepath.Join(head, "benchgate-"+name+".txt")); err != nil {
			return err
		}
		defer raw[i].Close()
		if bins[i], err = build(roots[i], filepath.Join(tmp, name)); err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
	}

	rows := map[string]*row{}
	var order []string
	for _, key := range union(slices.Collect(maps.Keys(bins[0])), slices.Collect(maps.Keys(bins[1]))) {
		fmt.Fprintf(os.Stderr, "benchgate: %s, %d pairs\n", key, pairs)
		for p := 0; p < pairs; p++ {
			for k := range sides {
				i := (k + p) % 2 // even pairs run base first, odd pairs head
				t := bins[i][key]
				if t == nil {
					continue
				}
				res, err := t.run(key, raw[i])
				if err != nil {
					return fmt.Errorf("%s: %w", sides[i], err)
				}
				for _, x := range res {
					if rows[x.name] == nil {
						rows[x.name] = &row{}
						order = append(order, x.name)
					}
					r := rows[x.name]
					r.ns[i] = append(r.ns[i], x.ns)
					r.allocs[i] = append(r.allocs[i], x.allocs)
				}
			}
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no benchmark ran")
	}
	return report(w, rows, order)
}

// report writes one line per row, in the order rows first appeared,
// then one GATE line per reason a row tripped.
func report(w io.Writer, rows map[string]*row, order []string) error {
	fmt.Fprintf(w, "%-48s %12s %12s %7s %7s  %s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "slower", "allocs/op base → head")
	var tripped []string
	for _, name := range order {
		r := rows[name]
		if len(r.ns[0]) == 0 || len(r.ns[1]) == 0 {
			fmt.Fprintf(w, "%-48s one side only: %d base, %d head runs\n", name, len(r.ns[0]), len(r.ns[1]))
			continue
		}
		ratios, slower := r.ratios()
		fmt.Fprintf(w, "%-48s %12.1f %12.1f %7.3f %4d/%-2d  %s → %s\n", name,
			median(r.ns[0]), median(r.ns[1]), median(ratios), slower, len(ratios),
			span(r.allocs[0]), span(r.allocs[1]))
		for _, why := range r.trips() {
			tripped = append(tripped, fmt.Sprintf("GATE: %s: %s", name, why))
		}
	}
	for _, line := range tripped {
		fmt.Fprintln(w, line)
	}
	if len(tripped) > 0 {
		return fmt.Errorf("%d regression(s) tripped the gate", len(tripped))
	}
	return nil
}

// A row is one benchmark line's ns/op and allocs/op per run on each
// side, in pair order.
type row struct {
	ns, allocs [2][]float64
}

// ratios returns the per-pair head/base ns/op ratios and how many of
// them are above 1.
func (r *row) ratios() ([]float64, int) {
	ratios := make([]float64, min(len(r.ns[0]), len(r.ns[1])))
	slower := 0
	for p := range ratios {
		ratios[p] = r.ns[1][p] / r.ns[0][p]
		if ratios[p] > 1 {
			slower++
		}
	}
	return ratios, slower
}

// trips returns why r, seen on both sides, fails the gate; nothing if
// it passes.
func (r *row) trips() []string {
	var why []string
	ratios, slower := r.ratios()
	if m := median(ratios); m > maxRatio && slower >= minSlower {
		why = append(why, fmt.Sprintf("ns/op median ratio %.3f > %.2f, head slower in %d of %d pairs (ratios %.2f)",
			m, maxRatio, slower, len(ratios), ratios))
	}
	if stats.Min(r.allocs[1]) > stats.Max(r.allocs[0]) {
		why = append(why, fmt.Sprintf("allocs/op %s → %s: every head run allocates more than every base run",
			span(r.allocs[0]), span(r.allocs[1])))
	}
	return why
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return s[stats.NearestRank(len(s), 0.5)-1]
}

// span renders the range of a row's allocs/op readings.
func span(xs []float64) string {
	if lo, hi := stats.Min(xs), stats.Max(xs); lo != hi {
		return fmt.Sprintf("%g–%g", lo, hi)
	}
	return fmt.Sprintf("%g", xs[0])
}

// A testBin is one package's test binary and the directory it runs in
// (the package's, as go test runs it).
type testBin struct {
	path, dir, bin string
}

var benchFunc = regexp.MustCompile(`(?m)^func Benchmark`)

// build compiles a test binary into binDir for every package under
// root with a Benchmark function. It returns them keyed by import path
// and top-level benchmark, "taskbench/internal/core BenchmarkWriteOutput".
func build(root, binDir string) (map[string]*testBin, error) {
	out, err := command(root, "go", "list", "-f",
		"{{.ImportPath}}\t{{.Dir}}{{range .TestGoFiles}}\t{{.}}{{end}}{{range .XTestGoFiles}}\t{{.}}{{end}}", "./...")
	if err != nil {
		return nil, err
	}
	bins := map[string]*testBin{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		has := false
		for _, name := range f[min(2, len(f)):] {
			src, err := os.ReadFile(filepath.Join(f[1], name))
			if err != nil {
				return nil, err
			}
			has = has || benchFunc.Match(src)
		}
		if !has {
			continue
		}
		t := &testBin{path: f[0], dir: f[1], bin: filepath.Join(binDir, strconv.Itoa(len(bins))+".test")}
		if _, err := command(root, "go", "test", "-c", "-o", t.bin, t.path); err != nil {
			return nil, err
		}
		list, err := command(t.dir, t.bin, "-test.list", "^Benchmark")
		if err != nil {
			return nil, err
		}
		for _, bench := range strings.Fields(list) {
			bins[t.path+" "+bench] = t
		}
	}
	return bins, nil
}

// run runs the top-level benchmark key names once, appending its
// output to raw.
func (t *testBin) run(key string, raw io.Writer) ([]result, error) {
	bench := key[len(t.path)+1:]
	cmd := exec.Command(t.bin, "-test.run", "^$", "-test.bench", "^"+bench+"$",
		"-test.benchmem", "-test.benchtime", benchtime, "-test.timeout", runTimeout.String())
	cmd.Dir = t.dir
	out, err := cmd.CombinedOutput()
	raw.Write(out) // the raw output is an artifact; losing it does not change the verdict
	return collect(key, out, err)
}

// collect parses one run's output. A --- FAIL line is an error naming
// the failed row; a failed run without one names the benchmark.
func collect(bench string, out []byte, runErr error) ([]result, error) {
	res, err := parse(bytes.NewReader(out))
	if err == nil && runErr != nil {
		err = fmt.Errorf("%s: %v", bench, runErr)
	}
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	return res, nil
}

// A result is one benchmark line's name and readings.
type result struct {
	name       string
	ns, allocs float64
}

// parse reads go test -bench output: each benchmark line is the name
// (with a -GOMAXPROCS suffix), the iteration count, then value/unit
// pairs ("123 ns/op", "45 B/op", "6 allocs/op", "7.8 tasks/s").
func parse(r io.Reader) ([]result, error) {
	var res []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "---" && f[1] == "FAIL:" {
			return nil, fmt.Errorf("%s failed", f[2])
		}
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		x := result{name: f[0]}
		for k := 2; k+1 < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				break
			}
			switch f[k+1] {
			case "ns/op":
				x.ns = v
			case "allocs/op":
				x.allocs = v
			}
		}
		res = append(res, x)
	}
	return res, sc.Err()
}

// command runs name in dir and returns its standard output; its
// standard error goes to ours.
func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	return string(out), nil
}

// union returns the sorted distinct strings of a and b.
func union(a, b []string) []string {
	return slices.Compact(slices.Sorted(slices.Values(slices.Concat(a, b))))
}
