package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfcheckRun is one child run's end-to-end metrics.
type selfcheckRun map[string]float64

// baselineDoc is what -selfcheck prints and -baseline stores: both runs
// of every workload on one build, the relative difference per metric,
// and the host they were measured on.
type baselineDoc struct {
	Host      map[string]any             `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string][2]selfcheckRun `json:"workloads"`
	// Worse[workload][metric] is how much worse run B read than run A, as
	// a share of A; negative when B read better.
	Worse map[string]map[string]float64 `json:"worse"`
	Pass  bool                          `json:"pass"`
	// Claim is always null: this benchmark defines numbers, it compares
	// none against a parent commit.
	Claim any `json:"claim"`
}

// runSelfcheck runs every workload twice on this build, each run in a
// process of its own (peak RSS is per process), prints the two sets
// side by side and fails if any end-to-end metric's second reading is
// worse than the first by more than its bound, in either direction.
func runSelfcheck(seed uint64, seconds float64, baselinePath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var clk clock
	for k := 0; k < 200; k++ {
		clk.sample()
	}
	host := hostFingerprint()
	host["bench.ref_ns_per_iter"] = median(clk.samples)
	doc := baselineDoc{Host: host, Seed: seed, Seconds: seconds, Pass: true,
		Workloads: map[string][2]selfcheckRun{}, Worse: map[string]map[string]float64{}}

	for _, w := range workloads {
		var runs [2]selfcheckRun
		for k := range runs {
			if runs[k], err = childRun(self, w.Name, seed, seconds); err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck %s run %c: %v\n", w.Name, 'A'+k, err)
				return 1
			}
		}
		doc.Workloads[w.Name] = runs
		doc.Worse[w.Name] = map[string]float64{}
		fmt.Printf("%s\n  %-20s %14s %14s %9s %7s\n", w.Name, "metric", "run A", "run B", "B vs A", "bound")
		for _, m := range endToEnd {
			a, b := runs[0][m.Name], runs[1][m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			doc.Worse[w.Name][m.Name] = worse
			verdict := ""
			// An A/A pair has no better side: either sign beyond the bound
			// means the benchmark cannot resolve the bound.
			if worse > m.Bound || worse < -m.Bound {
				verdict = "  OUT OF BOUND"
				doc.Pass = false
			}
			fmt.Printf("  %-20s %14s %14s %+8.2f%% %6.0f%%%s\n", m.Name, fmtValue(a), fmtValue(b), 100*worse, 100*m.Bound, verdict)
		}
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if baselinePath != "" {
		if err := os.WriteFile(baselinePath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !doc.Pass {
		fmt.Fprintln(os.Stderr, "bench: selfcheck: two runs of the same build differ by more than a bound")
		return 1
	}
	return 0
}

// childRun runs one untraced pass in a child process and parses its
// result line.
func childRun(self, workload string, seed uint64, seconds float64) (selfcheckRun, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run incorrect: %d of %d failed", res.Failed, res.Attempted)
	}
	run := selfcheckRun{}
	for name, v := range res.Metrics {
		run[name] = v.Value
	}
	return run, nil
}
