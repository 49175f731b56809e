package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// validInputs gathers task (t, i)'s correct inputs from the per-call
// reference relation, in dependence order.
func validInputs(g *Graph, t, i int) [][]byte {
	var inputs [][]byte
	g.DependenciesForPoint(t, i).ForEach(func(dep int) {
		buf := make([]byte, g.OutputBytes)
		g.WriteOutput(t-1, dep, buf)
		inputs = append(inputs, buf)
	})
	return inputs
}

// referenceInputsError is the input validation ExecutePoint performs,
// derived from the per-call reference relation the way it was before
// the compiled walk: the count first, then each input in dependence
// order, the first bad one reported.
func referenceInputsError(g *Graph, t, i int, inputs [][]byte) error {
	deps := g.DependenciesForPoint(t, i).Points()
	if len(inputs) != len(deps) {
		return &ValidationError{GraphID: g.GraphID, Timestep: t, Point: i,
			Detail: fmt.Sprintf("got %d inputs, want %d", len(inputs), len(deps))}
	}
	for n, dep := range deps {
		if err := g.checkInput(t, i, inputs[n], t-1, dep); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstReference runs a validated ExecutePoint of task (t, i)
// and fails unless its error is exactly the reference's.
func checkAgainstReference(t *testing.T, g *Graph, ts, i int, inputs [][]byte, what string) error {
	t.Helper()
	out := make([]byte, g.OutputBytes)
	got := g.ExecutePoint(ts, i, out, inputs, nil, true)
	if want := referenceInputsError(g, ts, i, inputs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s w=%d radix=%d period=%d, task (t=%d, i=%d), %s: ExecutePoint = %v, reference %v",
			g.Dependence, g.MaxWidth, g.Radix, g.Period, ts, i, what, got, want)
	}
	return got
}

// TestExecutePointErrorPrecedence pins the one error each malformed
// input list gets: a wrong count wins over a bad input wherever the bad
// input sits, and otherwise the first bad input in dependence order is
// reported with its own detail.
func TestExecutePointErrorPrecedence(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: 64})
	const ts, i = 2, 4 // inputs from columns 3, 4 and 5 of t=1
	mid := (PayloadHeaderSize + g.OutputBytes) / 2
	header := func(in [][]byte, n int) { g.WriteOutput(1, 7, in[n]) }
	cases := []struct {
		name   string
		t      int
		inputs func(in [][]byte) [][]byte
		want   string
	}{
		{"too few inputs", ts, func(in [][]byte) [][]byte { return in[:2] },
			"got 2 inputs, want 3"},
		{"too many inputs", ts, func(in [][]byte) [][]byte { return append(in, in[2]) },
			"got 4 inputs, want 3"},
		{"bad header and too few", ts, func(in [][]byte) [][]byte { header(in, 0); return in[:2] },
			"got 2 inputs, want 3"},
		{"bad header and too many", ts, func(in [][]byte) [][]byte { header(in, 1); return append(in, in[0]) },
			"got 4 inputs, want 3"},
		{"bad header", ts, func(in [][]byte) [][]byte { header(in, 1); return in },
			"input header is (t=1, i=7), want (t=1, i=4)"},
		{"corrupt first fill byte", ts, func(in [][]byte) [][]byte { in[0][PayloadHeaderSize] ^= 1; return in },
			fmt.Sprintf("input from (t=1, i=3) corrupt at byte %d", PayloadHeaderSize)},
		{"corrupt middle fill byte", ts, func(in [][]byte) [][]byte { in[1][mid] ^= 1; return in },
			fmt.Sprintf("input from (t=1, i=4) corrupt at byte %d", mid)},
		{"corrupt last fill byte", ts, func(in [][]byte) [][]byte { in[2][g.OutputBytes-1] ^= 1; return in },
			fmt.Sprintf("input from (t=1, i=5) corrupt at byte %d", g.OutputBytes-1)},
		{"inputs at t=0", 0, func(in [][]byte) [][]byte { return in[:1] },
			"got 1 inputs, want 0"},
	}
	wantDetail := func(t *testing.T, g *Graph, ts int, inputs [][]byte, want string) {
		t.Helper()
		out := make([]byte, g.OutputBytes)
		err := g.ExecutePoint(ts, i, out, inputs, nil, true)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("got %v, want a *ValidationError %q", err, want)
		}
		if verr.Timestep != ts || verr.Point != i || verr.Detail != want {
			t.Errorf("got (t=%d, i=%d) %q, want (t=%d, i=%d) %q",
				verr.Timestep, verr.Point, verr.Detail, ts, i, want)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantDetail(t, g, c.t, c.inputs(validInputs(g, ts, i)), c.want)
		})
	}

	// Each check of checkInputs' inline walk on its own, at sizes where
	// the three sampled bytes are one byte (17), share one fill lane
	// (24), lie in different lanes (64) and in different fill blocks
	// (4096).
	corrupt := func(dep, k int) string { return fmt.Sprintf("input from (t=1, i=%d) corrupt at byte %d", dep, k) }
	for _, size := range []int{17, 24, 64, 4096} {
		g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: size})
		mid, last := (PayloadHeaderSize+size)/2, size-1
		checks := []struct {
			name string
			edit func(in [][]byte)
			want string
		}{
			{"first fill byte", func(in [][]byte) { in[0][PayloadHeaderSize] ^= 0xff }, corrupt(3, PayloadHeaderSize)},
			{"middle fill byte", func(in [][]byte) { in[1][mid] ^= 0xff }, corrupt(4, mid)},
			{"last fill byte", func(in [][]byte) { in[2][last] ^= 0xff }, corrupt(5, last)},
			{"header t", func(in [][]byte) { binary.LittleEndian.PutUint64(in[1][0:8], 0) },
				"input header is (t=0, i=4), want (t=1, i=4)"},
			{"header i", func(in [][]byte) { binary.LittleEndian.PutUint64(in[1][8:16], 6) },
				"input header is (t=1, i=6), want (t=1, i=4)"},
			{"one byte short", func(in [][]byte) { in[2] = in[2][:size-1] },
				fmt.Sprintf("input from (t=1, i=5) has %d bytes, want %d", size-1, size)},
		}
		for _, c := range checks {
			t.Run(fmt.Sprintf("%dB %s", size, c.name), func(t *testing.T) {
				inputs := validInputs(g, ts, i)
				c.edit(inputs)
				wantDetail(t, g, ts, inputs, c.want)
			})
		}
	}
}

// TestCheckInputsMatchesReference holds the compiled one-pass input
// check to the reference validation for every task of every graph
// depTableGraphs builds (every dependence type, ragged and tree widths,
// several radixes, periods and seeds): the reference gather passes, and
// dropping, duplicating, appending or swapping inputs fails with the
// reference's *ValidationError.
func TestCheckInputsMatchesReference(t *testing.T) {
	for _, g := range depTableGraphs(t) {
		p := g.Params
		p.OutputBytes = PayloadHeaderSize + 8 // one fill word, all three samples in it
		g = MustNew(p)
		for ts := 0; ts < g.Timesteps; ts++ {
			off := g.OffsetAtTimestep(ts)
			for i := off; i < off+g.WidthAtTimestep(ts); i++ {
				valid := validInputs(g, ts, i)
				if err := checkAgainstReference(t, g, ts, i, valid, "reference gather"); err != nil {
					t.Fatalf("reference gather rejected: %v", err)
				}
				extra := make([]byte, g.OutputBytes)
				g.WriteOutput(max(ts-1, 0), g.OffsetAtTimestep(max(ts-1, 0)), extra)
				malformed := []edited{{"appended", append(clone(valid), extra)}}
				for n := range valid {
					malformed = append(malformed,
						edited{fmt.Sprintf("input %d dropped", n), append(clone(valid[:n]), valid[n+1:]...)},
						edited{fmt.Sprintf("input %d duplicated", n), append(clone(valid[:n+1]), valid[n:]...)})
					if n+1 < len(valid) {
						swapped := clone(valid)
						swapped[n], swapped[n+1] = swapped[n+1], swapped[n]
						malformed = append(malformed, edited{fmt.Sprintf("inputs %d and %d swapped", n, n+1), swapped})
					}
				}
				for _, m := range malformed {
					err := checkAgainstReference(t, g, ts, i, m.inputs, m.what)
					var verr *ValidationError
					if !errors.As(err, &verr) {
						t.Fatalf("%s w=%d, task (t=%d, i=%d), %s: got %v, want a *ValidationError",
							g.Dependence, g.MaxWidth, ts, i, m.what, err)
					}
				}
			}
		}
	}
}

// edited is a malformed input list and the edit that made it.
type edited struct {
	what   string
	inputs [][]byte
}

// clone copies the slice of inputs, not the payloads.
func clone(inputs [][]byte) [][]byte { return append([][]byte(nil), inputs...) }

// FuzzExecutePointInputs holds validated ExecutePoint to the reference
// validation on any graph shape, task and edit script. The script's
// byte pairs each drop, duplicate, swap, append or flip a byte of the
// reference gather; the error must equal the reference's exactly,
// including nil when the edits cancel out or miss every sampled byte.
func FuzzExecutePointInputs(f *testing.F) {
	f.Add(uint8(Stencil1D), uint8(8), uint8(0), uint8(0), uint8(2), uint8(4), uint8(48), []byte{})
	f.Add(uint8(Spread), uint8(8), uint8(5), uint8(2), uint8(3), uint8(1), uint8(48), []byte{2, 1})
	f.Add(uint8(Tree), uint8(3), uint8(0), uint8(0), uint8(3), uint8(5), uint8(0), []byte{0, 0})
	f.Add(uint8(FFT), uint8(4), uint8(0), uint8(0), uint8(4), uint8(9), uint8(8), []byte{1, 1, 2, 0})
	f.Add(uint8(RandomNearest), uint8(13), uint8(4), uint8(1), uint8(5), uint8(7), uint8(24), []byte{3, 2})
	f.Add(uint8(Stencil1DPeriodic), uint8(5), uint8(0), uint8(0), uint8(1), uint8(0), uint8(40), []byte{4, 17, 4, 0})
	f.Add(uint8(AllToAll), uint8(6), uint8(0), uint8(0), uint8(0), uint8(2), uint8(16), []byte{3, 0})
	// Each check of checkInputs' inline walk on its own, at OutputBytes
	// 17, 24 and 64: a flip (op 4) of the first, middle and last sampled
	// byte, of the header's t and of its i, in stencil task (2, 4).
	// (A short input and 4096-byte payloads are beyond the edit script;
	// TestExecutePointErrorPrecedence has them.)
	for _, s := range []struct {
		size  uint8
		flips []byte
	}{
		{1, []byte{16, 33, 50, 0, 8}}, // 17 B: every sample is byte 16
		{8, []byte{16, 20, 23, 0, 8}},
		{48, []byte{16, 40, 63, 0, 8}},
	} {
		for _, arg := range s.flips {
			f.Add(uint8(Stencil1D), uint8(8), uint8(0), uint8(0), uint8(2), uint8(4), s.size, []byte{4, arg})
		}
	}
	f.Fuzz(func(t *testing.T, dep, width, radix, period, tRaw, iRaw, size uint8, edits []byte) {
		types := DependenceTypes()
		d := types[int(dep)%len(types)]
		w := 1 + int(width)%64
		if d.RequiresPowerOfTwoWidth() {
			w = 1 << (int(width) % 7)
		}
		r := int(radix) % (w + 1)
		if d == Spread || d == RandomNearest {
			r = 1 + int(radix)%w
		}
		g := MustNew(Params{
			Timesteps: 6, MaxWidth: w, Dependence: d, Radix: r,
			Period: 1 + int(period)%5, Fraction: 0.4, Seed: uint64(period),
			OutputBytes: PayloadHeaderSize + int(size)%64,
		})
		ts := int(tRaw) % g.Timesteps
		i := g.OffsetAtTimestep(ts) + int(iRaw)%g.WidthAtTimestep(ts)
		inputs := validInputs(g, ts, i)
		for k := 0; k+1 < len(edits) && k < 16; k += 2 {
			op, arg := edits[k]%5, int(edits[k+1])
			if op < 3 && len(inputs) == 0 {
				continue
			}
			n := arg % max(len(inputs), 1)
			switch op {
			case 0:
				inputs = append(inputs[:n:n], inputs[n+1:]...)
			case 1:
				inputs = append(clone(inputs[:n+1]), inputs[n:]...)
			case 2:
				m := (n + 1) % len(inputs)
				inputs[n], inputs[m] = inputs[m], inputs[n]
			case 3:
				buf := make([]byte, g.OutputBytes)
				g.WriteOutput(max(ts-1, 0), arg%g.MaxWidth, buf)
				inputs = append(inputs, buf)
			case 4:
				if len(inputs) > 0 {
					buf := inputs[n]
					buf[arg%len(buf)] ^= 1
				}
			}
		}
		checkAgainstReference(t, g, ts, i, inputs, fmt.Sprintf("edits %v", edits))
	})
}
