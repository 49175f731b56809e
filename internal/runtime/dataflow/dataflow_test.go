package dataflow

import (
	"testing"

	"taskbench/internal/runtime/runtimetest"
)

func TestPolicyConformance(t *testing.T) {
	runtimetest.PolicyConformance(t, "dataflow")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "dataflow", 5)
}
