package exec_test

import (
	"testing"

	"taskbench/internal/leaktest"
)

// TestMain fails the package if a goroutine running this module's code
// outlives the tests: RankEngine.Run returns only once its drivers have
// exited, and Session.Run once its workers have.
func TestMain(m *testing.M) { leaktest.Main(m) }
