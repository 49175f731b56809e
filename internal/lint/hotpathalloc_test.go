package lint_test

import (
	"testing"

	"taskbench/internal/lint"
	"taskbench/internal/lint/linttest"
)

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "testdata/hotpathalloc")
}
