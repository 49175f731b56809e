package core

import (
	"encoding/binary"
	"fmt"

	"taskbench/internal/kernels"
)

// PayloadHeaderSize is the number of bytes at the front of every task
// output identifying the producing task. The paper's core library makes
// "the output of every task ... unique, and all inputs are verified"
// (§2); the header carries (timestep, point) and the remaining bytes a
// deterministic fill pattern, so corruption anywhere is detectable.
const PayloadHeaderSize = 16

// ValidationError describes a failed input check. Runtimes treat any
// validation error as fatal, mirroring the assertion in the reference
// core library.
type ValidationError struct {
	GraphID  int
	Timestep int
	Point    int
	Detail   string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: validation failed for task (t=%d, i=%d) of graph %d: %s",
		e.Timestep, e.Point, e.GraphID, e.Detail)
}

// fillSeed derives the per-task seed of the deterministic fill
// pattern. Uniqueness of the payload is carried by the exact (t, i)
// header; the fill only needs to be deterministic and well spread so
// corruption anywhere is detectable at sampled offsets.
func fillSeed(t, i int) uint64 {
	return splitmix64(uint64(int64(t))<<32 ^ uint64(int64(i)) ^ 0x7461736b62656e63)
}

// fillStep is the Weyl increment between consecutive fill lanes;
// fillStep2..4 are its multiples wrapped to 64 bits, so WriteOutput can
// derive four lanes from one running value.
const (
	fillStep  = 0x9e3779b97f4a7c15
	fillStep2 = 2 * fillStep & (1<<64 - 1)
	fillStep3 = 3 * fillStep & (1<<64 - 1)
	fillStep4 = 4 * fillStep & (1<<64 - 1)
)

// fillWord is 64-bit lane w of the fill pattern, covering payload bytes
// [PayloadHeaderSize+8w, PayloadHeaderSize+8w+8). It is the reference
// definition: fillByteAt samples it directly, and WriteOutput produces
// the same lanes by stepping v += fillStep instead of multiplying.
func fillWord(seed uint64, w int) uint64 {
	v := seed + uint64(w+1)*fillStep
	return v ^ (v >> 29)
}

// fillByteAt is the pattern byte at payload offset k (with
// k >= PayloadHeaderSize), consistent with the word-wise fill so
// validation can sample individual bytes.
func fillByteAt(seed uint64, k int) byte {
	body := k - PayloadHeaderSize
	return byte(fillWord(seed, body>>3) >> (8 * uint(body&7)))
}

// sampleAt locates the fill byte at payload offset k (with k >=
// PayloadHeaderSize) as fillByteAt does: it is byte sh of v ^ v>>29,
// with v = seed + mul.
func sampleAt(k int) (mul uint64, sh uint) {
	body := k - PayloadHeaderSize
	return uint64(body>>3+1) * fillStep, uint(8 * (body & 7))
}

// fillBlock is the body size fillAVX2 writes per loop trip: sixteen
// lanes in four 32-byte vectors. Shorter bodies never call out.
const fillBlock = 128

// WriteOutput encodes task (t, i)'s unique output into buf, which must
// be at least PayloadHeaderSize bytes (guaranteed by Params
// validation). The bytes beyond the header carry fillWord's lanes,
// strength-reduced to an add per lane. On amd64 CPUs with AVX2,
// fillAVX2 writes the body's whole 128-byte blocks; the Go loop writes
// the rest (every body elsewhere), four lanes per trip through a fixed
// 32-byte window so the stores carry no bounds checks. Both produce
// the same bytes.
func (g *Graph) WriteOutput(t, i int, buf []byte) {
	if len(buf) < PayloadHeaderSize {
		panic("core: output buffer smaller than payload header")
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(int64(t)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(i)))
	v := fillSeed(t, i) // lane w is v+(w+1)*fillStep, xor-shifted
	body := buf[PayloadHeaderSize:]
	if len(body) >= fillBlock && hasAVX2 {
		n := len(body) / fillBlock
		v = fillAVX2(&body[0], n, v)
		body = body[n*fillBlock:]
	}
	for len(body) >= 32 {
		b := body[:32:32]
		v1, v2, v3, v4 := v+fillStep, v+fillStep2, v+fillStep3, v+fillStep4
		binary.LittleEndian.PutUint64(b[0:8], v1^(v1>>29))
		binary.LittleEndian.PutUint64(b[8:16], v2^(v2>>29))
		binary.LittleEndian.PutUint64(b[16:24], v3^(v3>>29))
		binary.LittleEndian.PutUint64(b[24:32], v4^(v4>>29))
		v = v4
		body = body[32:]
	}
	for len(body) >= 8 {
		v += fillStep
		binary.LittleEndian.PutUint64(body, v^(v>>29))
		body = body[8:]
	}
	if len(body) > 0 {
		v += fillStep
		x := v ^ (v >> 29)
		for k := range body {
			body[k] = byte(x >> (8 * uint(k)))
		}
	}
}

// decodeHeader extracts the (timestep, point) pair from a payload.
func decodeHeader(buf []byte) (t, i int64) {
	return int64(binary.LittleEndian.Uint64(buf[0:8])),
		int64(binary.LittleEndian.Uint64(buf[8:16]))
}

// checkInput validates one input payload against the expected producer
// (wantT, wantI). The header is checked exactly; the fill pattern is
// sampled at the first, middle and last bytes, keeping the validation
// overhead below the paper's 3% bound even for large payloads. The
// success path allocates nothing — error values are only constructed
// on failure.
func (g *Graph) checkInput(t, i int, buf []byte, wantT, wantI int) error {
	if len(buf) != g.OutputBytes {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: fmt.Sprintf("input from (t=%d, i=%d) has %d bytes, want %d",
				wantT, wantI, len(buf), g.OutputBytes)}
	}
	gotT, gotI := decodeHeader(buf)
	if gotT != int64(wantT) || gotI != int64(wantI) {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: fmt.Sprintf("input header is (t=%d, i=%d), want (t=%d, i=%d)",
				gotT, gotI, wantT, wantI)}
	}
	if len(buf) > PayloadHeaderSize {
		seed := fillSeed(wantT, wantI)
		samples := [3]int{PayloadHeaderSize, (PayloadHeaderSize + len(buf)) / 2, len(buf) - 1}
		for _, k := range samples {
			if buf[k] != fillByteAt(seed, k) {
				return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
					Detail: fmt.Sprintf("input from (t=%d, i=%d) corrupt at byte %d", wantT, wantI, k)}
			}
		}
	}
	return nil
}

// checkInputs validates the inputs of task (t, i), which must lie in
// the graph, in one pass over the compiled forward list of (dsetAt[t],
// i) clipped to the active window of t-1. Each input is checked where
// the walk reaches it, with checkInput's checks written inline: its
// length, both header words and the three sampled fill bytes. What
// depends only on the graph — the sampled offsets, each sample's lane
// multiplier and byte shift — is worked out once per call, so an input
// costs one fillSeed and compares. The steady state allocates nothing
// and makes no call per dependence (the naive DependenciesForPoint
// would allocate two IntervalLists per task). checkInput runs only
// after a mismatch, and its verdict stands: it words the error, and
// an input it passes is counted, so the inline checks can only cost a
// call, never skip an input. A wrong count wins over a bad input, so
// only the error path, through countFirst, walks the list a second
// time.
func (g *Graph) checkInputs(t, i int, inputs [][]byte) error {
	n := 0
	if t > 0 {
		dt := g.Deps()
		k := int(dt.dsetAt[t])*dt.width + i
		lo := int(dt.offAt[t-1])
		hi := lo + int(dt.widthAt[t-1]) - 1
		size := g.OutputBytes
		mid, last := (PayloadHeaderSize+size)/2, size-1
		mulMid, shMid := sampleAt(mid)
		mulLast, shLast := sampleAt(last)
		wantT := uint64(int64(t - 1))
		for _, iv := range dt.fwd.arena[dt.fwd.off[k]:dt.fwd.off[k+1]] {
			for dep := max(iv.First, lo); dep <= min(iv.Last, hi); dep++ {
				if n == len(inputs) {
					return g.countFirst(t, i, len(inputs), nil)
				}
				buf := inputs[n]
				// len(buf) >= PayloadHeaderSize follows from the first
				// test; it spares the header loads their bounds checks.
				ok := len(buf) == size && len(buf) >= PayloadHeaderSize &&
					binary.LittleEndian.Uint64(buf[0:8]) == wantT &&
					binary.LittleEndian.Uint64(buf[8:16]) == uint64(int64(dep))
				if ok && size > PayloadHeaderSize {
					seed := fillSeed(t-1, dep)
					v0, vm, vl := seed+fillStep, seed+mulMid, seed+mulLast
					ok = buf[PayloadHeaderSize] == byte(v0^v0>>29) &&
						buf[mid] == byte((vm^vm>>29)>>shMid) &&
						buf[last] == byte((vl^vl>>29)>>shLast)
				}
				if !ok {
					if err := g.checkInput(t, i, buf, t-1, dep); err != nil {
						return g.countFirst(t, i, len(inputs), err)
					}
				}
				n++
			}
		}
	}
	if n != len(inputs) {
		return g.countFirst(t, i, len(inputs), nil)
	}
	return nil
}

// countFirst is checkInputs' error path: it recounts the dependencies
// of task (t, i) and reports a count mismatch in preference to err,
// the first bad input's error (nil when the walk ran out of inputs or
// dependencies).
func (g *Graph) countFirst(t, i, got int, err error) error {
	it := g.PointDeps(t, i)
	if want := it.Count(); got != want {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: fmt.Sprintf("got %d inputs, want %d", got, want)}
	}
	return err
}

// ExecutePoint runs task (t, i): it validates every input payload
// against the graph's dependence relation, executes the configured
// kernel against the column's scratch buffer, and writes the task's
// unique output into output. inputs must be supplied in dependence
// enumeration order (ascending column). Returns a *ValidationError if
// the inputs do not match the graph structure.
//
// Setting validate to false skips input checking; the ablation
// benchmark uses this to measure validation overhead.
func (g *Graph) ExecutePoint(t, i int, output []byte, inputs [][]byte, scratch *kernels.Scratch, validate bool) error {
	if !g.ContainsPoint(t, i) {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: "task is outside the graph"}
	}
	if validate {
		if err := g.checkInputs(t, i, inputs); err != nil {
			return err
		}
	}

	// Only the load-imbalance kernel reads the multiplier; every other
	// task would pay its four-round hash for nothing.
	var mult float64
	if g.Kernel.Type == kernels.LoadImbalance {
		mult = g.TaskMultiplier(t, i)
	}
	kernels.Execute(g.Kernel, scratch, mult)

	if len(output) != g.OutputBytes {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: fmt.Sprintf("output buffer has %d bytes, want %d", len(output), g.OutputBytes)}
	}
	g.WriteOutput(t, i, output)
	if g.FaultRate > 0 {
		g.maybeInjectFault(t, i, output)
	}
	return nil
}

// maybeInjectFault corrupts the task's output with probability
// FaultRate, flipping the last fill byte (one of the positions every
// consumer samples). Used by the fault-injection conformance tests.
func (g *Graph) maybeInjectFault(t, i int, output []byte) {
	h := hashPoint(g.Seed^0xfa017, int64(g.GraphID), int64(t), int64(i))
	if uniformFloat(h) < g.FaultRate && len(output) > PayloadHeaderSize {
		output[len(output)-1] ^= 0xFF
	}
}
