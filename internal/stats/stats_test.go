package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestGeomItersDescendingCoversRange(t *testing.T) {
	f := func(hiRaw uint16, perRaw uint8) bool {
		hi := int64(hiRaw) + 1
		per := 1 + int(perRaw)%4
		iters := GeomIters(hi, 1, per)
		if len(iters) == 0 || iters[0] != hi || iters[len(iters)-1] != 1 {
			return false
		}
		for k := 1; k < len(iters); k++ {
			if iters[k] >= iters[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomItersClamping(t *testing.T) {
	iters := GeomIters(0, 0, 0)
	if len(iters) == 0 || iters[0] != 1 {
		t.Errorf("degenerate GeomIters = %v", iters)
	}
}

func TestInterpLogX(t *testing.T) {
	// y goes 1.0 → 0.0 as x goes 100 → 1; crossing y=0.5 is at x=10
	// in log space.
	got := InterpLogX(100, 1.0, 1, 0.0, 0.5)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("InterpLogX = %v, want 10", got)
	}
	// Degenerate flat segment returns x1.
	if got := InterpLogX(100, 0.5, 1, 0.5, 0.5); got != 1 {
		t.Errorf("flat InterpLogX = %v, want 1", got)
	}
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.5, 0},
		{1, 0.01, 1}, {1, 0.5, 1}, {1, 1, 1},
		{2, 0.5, 1}, {2, 0.51, 2},
		{20, 0.5, 10}, {20, 0.95, 19}, {20, 0.99, 20}, {20, 1, 20},
		{100, 0.5, 50}, {100, 0.95, 95}, {100, 0.99, 99}, {101, 0.99, 100},
		{7, 0, 1}, {7, 1.5, 7},
	} {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}
