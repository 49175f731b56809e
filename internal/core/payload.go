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

// WriteOutput encodes task (t, i)'s unique output into buf, which must
// be at least PayloadHeaderSize bytes (guaranteed by Params
// validation). The bytes beyond the header carry fillWord's lanes,
// strength-reduced to an add per lane and written four lanes per trip
// through a fixed 32-byte window so the stores carry no bounds checks.
//
//taskbench:hotpath
func (g *Graph) WriteOutput(t, i int, buf []byte) {
	if len(buf) < PayloadHeaderSize {
		panic("core: output buffer smaller than payload header")
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(int64(t)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(i)))
	v := fillSeed(t, i) // lane w is v+(w+1)*fillStep, xor-shifted
	body := buf[PayloadHeaderSize:]
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
//
//taskbench:hotpath
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

// ExecutePoint runs task (t, i): it validates every input payload
// against the graph's dependence relation, executes the configured
// kernel against the column's scratch buffer, and writes the task's
// unique output into output. inputs must be supplied in dependence
// enumeration order (ascending column). Returns a *ValidationError if
// the inputs do not match the graph structure.
//
// Setting validate to false skips input checking; the ablation
// benchmark uses this to measure validation overhead.
//
//taskbench:hotpath
func (g *Graph) ExecutePoint(t, i int, output []byte, inputs [][]byte, scratch *kernels.Scratch, validate bool) error {
	if !g.ContainsPoint(t, i) {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: "task is outside the graph"}
	}
	if validate {
		// The compiled table keeps the steady-state validation path
		// allocation-free: the naive DependenciesForPoint would allocate
		// two IntervalLists per executed task.
		it := g.PointDeps(t, i)
		if got, want := len(inputs), it.Count(); got != want {
			return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
				Detail: fmt.Sprintf("got %d inputs, want %d", got, want)}
		}
		n := 0
		for dep, ok := it.Next(); ok; dep, ok = it.Next() {
			if err := g.checkInput(t, i, inputs[n], t-1, dep); err != nil {
				return err
			}
			n++
		}
	}

	kernels.Execute(g.Kernel, scratch, g.TaskMultiplier(t, i))

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
