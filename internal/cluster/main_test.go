package cluster

import (
	"testing"

	"taskbench/internal/leaktest"
)

// TestMain fails the package if a goroutine running this module's code
// outlives the tests: every Close here means stopped, so after the last
// test's cleanup nothing of the coordinator, the workers or the clients
// may still run.
func TestMain(m *testing.M) { leaktest.Main(m) }
