package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"taskbench/internal/kernels"
)

func TestWriteOutputUnique(t *testing.T) {
	g := MustNew(Params{Timesteps: 8, MaxWidth: 8, OutputBytes: 64})
	seen := map[string]bool{}
	buf := make([]byte, g.OutputBytes)
	for ts := 0; ts < 8; ts++ {
		for i := 0; i < 8; i++ {
			g.WriteOutput(ts, i, buf)
			key := string(buf)
			if seen[key] {
				t.Fatalf("duplicate output payload for (t=%d, i=%d)", ts, i)
			}
			seen[key] = true
		}
	}
}

// pinnedPayloadDigest is the SHA-256 of every payload
// TestWriteOutputPinned writes, in order, computed at the commit before
// WriteOutput's fill loop was strength-reduced. Fleet peers and
// checkInput read these bytes, so a change here is a protocol change.
const pinnedPayloadDigest = "754147c63f32502f18bed8ddc1d8374fd8e5d4428b123a935aeaa4ba5a648205"

// TestWriteOutputPinned holds WriteOutput byte for byte to its
// definition — the little-endian (t, i) header followed by fillByteAt
// at every offset — and the whole set to pinnedPayloadDigest. Lengths
// 16–300 cross every 32-byte-trip / 8-byte-lane / sub-word-tail
// combination, 4096 / 4099 are tcp_payload's size with and without a
// tail, and the (t, i) pairs include 0 and values at or above 2^32 so
// both halves of the seed's t<<32 ^ i mixing are exercised.
func TestWriteOutputPinned(t *testing.T) {
	var sizes []int
	for n := PayloadHeaderSize; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 4096, 4099)
	g := MustNew(Params{Timesteps: 1, MaxWidth: 1})
	h := sha256.New()
	for _, p := range [][2]int{{0, 0}, {3, 5}, {1 << 32, 1}, {2, 1<<32 + 7}, {1 << 40, 1 << 33}} {
		seed := fillSeed(p[0], p[1])
		for _, n := range sizes {
			buf := make([]byte, n)
			g.WriteOutput(p[0], p[1], buf)
			h.Write(buf)
			want := make([]byte, n)
			binary.LittleEndian.PutUint64(want[0:8], uint64(int64(p[0])))
			binary.LittleEndian.PutUint64(want[8:16], uint64(int64(p[1])))
			for k := PayloadHeaderSize; k < n; k++ {
				want[k] = fillByteAt(seed, k)
			}
			for k := range want {
				if buf[k] != want[k] {
					t.Fatalf("(t=%d, i=%d, n=%d): byte %d = %#x, want %#x", p[0], p[1], n, k, buf[k], want[k])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedPayloadDigest {
		t.Errorf("payload digest = %s, want %s", got, pinnedPayloadDigest)
	}
}

func TestWriteOutputPanicsOnShortBuffer(t *testing.T) {
	g := MustNew(Params{Timesteps: 1, MaxWidth: 1})
	defer func() {
		if recover() == nil {
			t.Error("WriteOutput did not panic on short buffer")
		}
	}()
	g.WriteOutput(0, 0, make([]byte, 8))
}

func execStencilPoint(g *Graph, t, i int, tamper func(inputs [][]byte)) error {
	inputs := make([][]byte, 0, 3)
	g.DependenciesForPoint(t, i).ForEach(func(dep int) {
		buf := make([]byte, g.OutputBytes)
		g.WriteOutput(t-1, dep, buf)
		inputs = append(inputs, buf)
	})
	if tamper != nil {
		tamper(inputs)
	}
	out := make([]byte, g.OutputBytes)
	return g.ExecutePoint(t, i, out, inputs, nil, true)
}

func TestExecutePointValidInputs(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: 40})
	for ts := 1; ts < 4; ts++ {
		for i := 0; i < 8; i++ {
			if err := execStencilPoint(g, ts, i, nil); err != nil {
				t.Errorf("valid inputs rejected at (t=%d, i=%d): %v", ts, i, err)
			}
		}
	}
}

func TestExecutePointDetectsMissingInput(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D})
	// Supply a single input where the stencil expects three.
	inputs := [][]byte{make([]byte, g.OutputBytes)}
	g.WriteOutput(1, 3, inputs[0])
	out := make([]byte, g.OutputBytes)
	err := g.ExecutePoint(2, 4, out, inputs, nil, true)
	var verr *ValidationError
	if !errors.As(err, &verr) || !strings.Contains(err.Error(), "inputs") {
		t.Errorf("missing input not detected: %v", err)
	}
}

func TestExecutePointDetectsWrongProducer(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D})
	err := execStencilPoint(g, 2, 4, func(inputs [][]byte) {
		g.WriteOutput(1, 7, inputs[0]) // should be from column 3
	})
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("wrong producer not detected: %v", err)
	}
	if verr.Timestep != 2 || verr.Point != 4 {
		t.Errorf("error located at (t=%d, i=%d), want (2, 4)", verr.Timestep, verr.Point)
	}
}

func TestExecutePointDetectsWrongTimestep(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D})
	err := execStencilPoint(g, 2, 4, func(inputs [][]byte) {
		g.WriteOutput(0, 3, inputs[0]) // stale timestep
	})
	if err == nil {
		t.Error("stale timestep not detected")
	}
}

func TestExecutePointDetectsCorruptFill(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: 256})
	err := execStencilPoint(g, 2, 4, func(inputs [][]byte) {
		inputs[0][len(inputs[0])-1] ^= 0xFF
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt fill not detected: %v", err)
	}
}

func TestExecutePointDetectsWrongSize(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: 64})
	err := execStencilPoint(g, 2, 4, func(inputs [][]byte) {
		inputs[0] = inputs[0][:32]
	})
	if err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Errorf("wrong size not detected: %v", err)
	}
}

func TestExecutePointSkipsValidationWhenDisabled(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D})
	out := make([]byte, g.OutputBytes)
	// No inputs at all: would fail with validation on.
	if err := g.ExecutePoint(2, 4, out, nil, nil, false); err != nil {
		t.Errorf("validation-off run failed: %v", err)
	}
}

func TestExecutePointOutsideGraph(t *testing.T) {
	g := MustNew(Params{Timesteps: 2, MaxWidth: 2})
	out := make([]byte, g.OutputBytes)
	if err := g.ExecutePoint(5, 0, out, nil, nil, true); err == nil {
		t.Error("out-of-graph task not rejected")
	}
}

func TestExecutePointRunsKernel(t *testing.T) {
	g := MustNew(Params{
		Timesteps: 2, MaxWidth: 2,
		Kernel:       kernels.Config{Type: kernels.MemoryBound, Iterations: 4, SpanBytes: 64},
		ScratchBytes: 1024,
	})
	scratch := kernels.NewScratch(g.ScratchBytes)
	out := make([]byte, g.OutputBytes)
	if err := g.ExecutePoint(0, 0, out, nil, scratch, true); err != nil {
		t.Fatalf("ExecutePoint: %v", err)
	}
	gotT, gotI := decodeHeader(out)
	if gotT != 0 || gotI != 0 {
		t.Errorf("output header = (%d, %d), want (0, 0)", gotT, gotI)
	}
}

// Property: any single-byte corruption of the header or sampled fill
// positions is detected.
func TestPayloadCorruptionDetectionProperty(t *testing.T) {
	g := MustNew(Params{Timesteps: 8, MaxWidth: 8, Dependence: NoComm, OutputBytes: 48})
	f := func(tsRaw, iRaw uint8, flip uint8) bool {
		ts := 1 + int(tsRaw)%7
		i := int(iRaw) % 8
		buf := make([]byte, g.OutputBytes)
		g.WriteOutput(ts-1, i, buf)
		// Corrupt a byte that validation inspects: header, first fill,
		// middle fill, or last fill.
		checked := []int{0, 5, 8, 13, PayloadHeaderSize, (PayloadHeaderSize + len(buf)) / 2, len(buf) - 1}
		pos := checked[int(flip)%len(checked)]
		buf[pos] ^= 1 | flip // always a non-zero flip
		out := make([]byte, g.OutputBytes)
		err := g.ExecutePoint(ts, i, out, [][]byte{buf}, nil, true)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidationErrorMessage(t *testing.T) {
	e := &ValidationError{GraphID: 3, Timestep: 5, Point: 7, Detail: "boom"}
	msg := e.Error()
	for _, want := range []string{"t=5", "i=7", "graph 3", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}
