package tcp

import (
	"testing"

	"taskbench/internal/leaktest"
)

// TestMain fails the package if a goroutine running this module's code
// outlives the tests: MeshTransport.Close returns only once its
// demultiplexers, its acceptor and its Cancel watcher have exited, and
// RankEngine.Run only once its drivers have.
func TestMain(m *testing.M) { leaktest.Main(m) }
