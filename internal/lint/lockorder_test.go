package lint_test

import (
	"testing"

	"taskbench/internal/lint"
	"taskbench/internal/lint/linttest"
)

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.LockOrder, "testdata/taskbench")
}
