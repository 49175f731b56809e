// Command taskbenchvet is the repository's custom static-analysis
// suite: a multichecker over the analyzers in internal/lint that
// enforce the invariants the benchmark's results depend on and no test
// can see, because they hold of every path rather than of the paths a
// test runs — the zero-allocation hot path (hotpathalloc), the
// coordinator's lock hierarchy (lockorder) and panic-free metrics
// registration (metricsonce).
//
// Usage:
//
//	go run ./cmd/taskbenchvet ./...
//	go run ./cmd/taskbenchvet -analyzers hotpathalloc,lockorder ./internal/cluster
//
// The exit status is 1 when any analyzer reports a finding, 2 on a
// loading or internal error — the same convention as go vet, so the CI
// lint lane can treat findings as errors. See DESIGN.md §14 for the
// annotation conventions (//taskbench:hotpath, //taskbench:allocok)
// and the lock-ordering table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskbench/internal/lint"
)

func main() {
	analyzersFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: taskbenchvet [-analyzers a,b] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *analyzersFlag != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*analyzersFlag, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "taskbenchvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	session, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskbenchvet:", err)
		os.Exit(2)
	}

	findings := 0
	for _, a := range analyzers {
		diags, err := session.Run(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taskbenchvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", session.Fset.Position(d.Pos), d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "taskbenchvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
