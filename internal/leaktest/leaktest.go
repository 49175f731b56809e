// Package leaktest fails a test binary whose goroutines outlive its
// tests. A package whose Close means stopped runs its tests through
// Main: after the last test's cleanup, no goroutine running this
// module's code may still be alive.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, if they pass, fails the binary when a
// goroutine whose stack names a taskbench/ function is still alive
// after a bounded wait, printing their stacks. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Leaked(5 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "FAIL: goroutines still running taskbench code after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked waits up to wait for every other goroutine whose stack names
// a taskbench/ function to exit, and returns the stacks of those that
// have not.
func Leaked(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		leaked := Running("taskbench/")
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Running returns the stacks of the goroutines, other than the
// caller's, whose stack contains match.
func Running(match string) []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var found []string
	// The first stack is this goroutine's own.
	for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if strings.Contains(g, match) {
			found = append(found, g)
		}
	}
	return found
}
