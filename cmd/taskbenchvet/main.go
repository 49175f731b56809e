// Command taskbenchvet is the repository's custom static-analysis
// suite: it runs the analyzers in internal/lint, which enforce what the
// fleet's correctness depends on and no test can see, because it holds
// of every path rather than of the paths a test runs — the
// coordinator's lock hierarchy (lockorder).
//
// Usage:
//
//	go run ./cmd/taskbenchvet ./...
//	go run ./cmd/taskbenchvet ./internal/cluster
//
// The exit status is 1 when any analyzer reports a finding, 2 on a
// usage, loading or internal error — the same convention as go vet, so
// the CI lint lane can treat findings as errors. See DESIGN.md §14 for
// the lock-ordering table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"taskbench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, analyzes the packages they
// name from the working directory, writes findings to stdout and
// errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("taskbenchvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: taskbenchvet [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	session, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "taskbenchvet:", err)
		return 2
	}

	findings := 0
	for _, a := range lint.Analyzers() {
		diags, err := session.Run(a)
		if err != nil {
			fmt.Fprintln(stderr, "taskbenchvet:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", session.Fset.Position(d.Pos), d.Message, d.Analyzer)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "taskbenchvet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
