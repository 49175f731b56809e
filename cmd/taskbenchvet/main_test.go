package main

import (
	"strings"
	"testing"
)

// TestExitCodes pins the go vet exit-status convention the CI lint lane
// relies on: 0 clean, 2 for a usage or loading error — here a pattern go
// list cannot load.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		wantStderr string
	}{
		{"clean package", []string{"taskbench/internal/stats"}, 0, ""},
		{"pattern that does not load", []string{"taskbench/internal/nosuchpackage"}, 2, "taskbenchvet:"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := run(c.args, &stdout, &stderr); got != c.code {
				t.Fatalf("exit status %d, want %d\nstdout:\n%s\nstderr:\n%s", got, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.wantStderr)
			}
			if c.code == 0 && stdout.Len() != 0 {
				t.Errorf("clean run printed findings:\n%s", stdout.String())
			}
		})
	}
}
