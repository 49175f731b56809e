package coforall

import (
	"testing"

	"taskbench/internal/runtime/runtimetest"
)

func TestRankPolicyConformance(t *testing.T) {
	runtimetest.RankPolicyConformance(t, "coforall")
}

func TestRepeat(t *testing.T) {
	runtimetest.Repeat(t, "coforall", 5)
}
