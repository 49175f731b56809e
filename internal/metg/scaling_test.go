package metg

import (
	"testing"
	"time"
)

func TestStrongScalingLimit(t *testing.T) {
	// Flat METG of 10µs: a 640µs-granularity workload strong-scales
	// 64× before tasks hit the floor.
	flat := func(int) time.Duration { return 10 * time.Microsecond }
	if got := StrongScalingLimit(640*time.Microsecond, flat, 1024); got != 64 {
		t.Errorf("flat limit = %d, want 64", got)
	}

	// Rising METG (doubling every 4× nodes) stops scaling earlier.
	rising := func(nodes int) time.Duration {
		m := 10 * time.Microsecond
		for n := 1; n < nodes; n *= 4 {
			m *= 2
		}
		return m
	}
	limit := StrongScalingLimit(640*time.Microsecond, rising, 1024)
	if limit >= 64 || limit < 4 {
		t.Errorf("rising limit = %d, want within [4, 64)", limit)
	}

	// A workload already below METG cannot scale at all.
	if got := StrongScalingLimit(time.Microsecond, flat, 1024); got != 0 {
		t.Errorf("hopeless limit = %d, want 0", got)
	}

	// Larger problems scale further: monotonicity.
	small := StrongScalingLimit(100*time.Microsecond, flat, 1024)
	large := StrongScalingLimit(10*time.Millisecond, flat, 1024)
	if large <= small {
		t.Errorf("larger problems should scale further: %d vs %d", large, small)
	}
}
