package main

import (
	"math"
	"sort"

	"taskbench/internal/metg"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// summary is what is printed beside every value.
type summary struct {
	Q1, Median, Q3 float64
	N              int
}

// summarize returns the nearest-rank quartiles of xs (xs is not
// modified).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{percentile(s, 25), percentile(s, 50), percentile(s, 75), len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// isotonicNonIncreasing is the least-squares non-increasing fit to y
// (pool adjacent violators, equal weights).
func isotonicNonIncreasing(y []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, v := range y {
		blocks = append(blocks, block{v, 1})
		for k := len(blocks) - 1; k > 0 &&
			blocks[k].sum/float64(blocks[k].n) > blocks[k-1].sum/float64(blocks[k-1].n); k-- {
			blocks[k-1].sum += blocks[k].sum
			blocks[k-1].n += blocks[k].n
			blocks = blocks[:k]
		}
	}
	out := make([]float64, 0, len(y))
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// isotonicMETG extracts METG from a curve measured with shrinking
// problem sizes (gran and eff in ladder order, largest grain first).
// The efficiencies are first made non-increasing, which leaves exactly
// one crossing of the threshold however the raw curve wobbles; the
// crossing is interpolated over log(granularity). The Kind has the
// semantics of metg.METG: NotReached (no point attains the threshold,
// no value), UpperBound (every point attains it; the smallest
// granularity bounds METG from above), Measured.
func isotonicMETG(gran, eff []float64, threshold float64) (float64, metg.Kind) {
	fit := isotonicNonIncreasing(eff)
	last := -1 // last point at or above the threshold
	for k, e := range fit {
		if e >= threshold && gran[k] > 0 {
			last = k
		}
	}
	switch {
	case last < 0:
		return 0, metg.NotReached
	case last == len(fit)-1:
		return gran[last], metg.UpperBound
	}
	a, b := last, last+1
	f := (threshold - fit[a]) / (fit[b] - fit[a])
	return math.Exp(math.Log(gran[a]) + f*(math.Log(gran[b])-math.Log(gran[a]))), metg.Measured
}

// percentileOf is percentile on an unsorted slice.
func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}
