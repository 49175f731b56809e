package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if a goroutine running this module's code
// outlives the tests: every Close here means stopped, so after the last
// test's cleanup nothing of the coordinator, the workers or the clients
// may still run.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "FAIL: goroutines still running taskbench code after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines waits up to wait for every other goroutine whose
// stack names a taskbench/ function to exit, and returns the stacks of
// those that have not.
func leakedGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var leaked []string
		// The first stack is this goroutine's own.
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "taskbench/") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
