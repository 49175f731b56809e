package places

import (
	"testing"

	"taskbench/internal/runtime/runtimetest"
)

func TestPolicyConformance(t *testing.T) {
	runtimetest.PolicyConformance(t, "places")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "places", 5)
}
