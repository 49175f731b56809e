// Package stats provides the small numeric helpers used by the METG
// harness and the figure generators: summary statistics, geometric
// spacing for problem-size sweeps, and log-space interpolation.
package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum of xs (0 for an empty slice).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// NearestRank returns the 1-based nearest-rank position of the
// q-quantile among n sorted samples, ceil(q·n) clamped to [1, n] — the
// one percentile rule behind the timeline rows, the latency histograms
// and everything rendered from them. It is 0 when n is 0.
func NearestRank(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		return 1
	}
	if rank > n {
		return n
	}
	return rank
}

// GeomSpace returns n values geometrically spaced from lo to hi
// inclusive. lo and hi must be positive and n >= 2.
func GeomSpace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := 0; i < n; i++ {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi
	return out
}

// GeomIters returns descending iteration counts from hi down to lo
// with the given number of points per factor of two. Duplicates are
// removed; the list always contains hi and lo.
func GeomIters(hi, lo int64, perDoubling int) []int64 {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if perDoubling < 1 {
		perDoubling = 1
	}
	ratio := math.Pow(2, 1/float64(perDoubling))
	var out []int64
	v := float64(hi)
	last := int64(-1)
	for v >= float64(lo) {
		n := int64(math.Round(v))
		if n != last {
			out = append(out, n)
			last = n
		}
		v /= ratio
	}
	if last != lo {
		out = append(out, lo)
	}
	return out
}

// InterpLogX linearly interpolates y over log(x): given two points
// (x0, y0) and (x1, y1), it returns the x at which y crosses yt.
func InterpLogX(x0, y0, x1, y1, yt float64) float64 {
	if y1 == y0 {
		return x1
	}
	l0, l1 := math.Log(x0), math.Log(x1)
	f := (yt - y0) / (y1 - y0)
	return math.Exp(l0 + f*(l1-l0))
}
