package core

import (
	"testing"

	"taskbench/internal/kernels"
)

// TestQueriesAllocateNothing holds core's per-task surface — the
// compiled dependence queries, the payload fill and a validated
// ExecutePoint — to zero heap allocations per call once the table is
// built. The engines' warm tests cover the same functions as the
// engines use them; this one calls them directly, so it also covers
// the ones only setup and the tests call (Forward, Reverse,
// PointConsumers) and names core as the layer when one starts to
// allocate.
func TestQueriesAllocateNothing(t *testing.T) {
	g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Stencil1D, OutputBytes: 64})
	const ts, i = 2, 3
	var inputs [][]byte
	it := g.PointDeps(ts, i)
	for dep, ok := it.Next(); ok; dep, ok = it.Next() {
		buf := make([]byte, g.OutputBytes)
		g.WriteOutput(ts-1, dep, buf)
		inputs = append(inputs, buf)
	}
	out := make([]byte, g.OutputBytes)
	scratch := kernels.NewScratch(g.ScratchBytes)
	dset := g.DependenceSetAt(ts)

	var points, spans, consumers, listed int
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		points, spans, consumers, listed = 0, 0, 0, 0
		it := g.PointDeps(ts, i)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			points++
		}
		it = g.PointDeps(ts, i)
		for _, ok := it.NextSpan(); ok; _, ok = it.NextSpan() {
			spans++
		}
		it = g.PointConsumers(ts, i)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			consumers++
		}
		dt := g.Deps()
		listed = len(dt.Forward(dset, i)) + len(dt.Reverse(dset, i))
		g.WriteOutput(ts, i, out)
		err = g.ExecutePoint(ts, i, out, inputs, scratch, true)
	})
	if err != nil {
		t.Fatalf("ExecutePoint: %v", err)
	}
	if points != 3 || spans != 1 || consumers != 3 || listed != 2 {
		t.Fatalf("stencil (t=%d, i=%d): %d dependencies in %d spans, %d consumers, %d listed intervals; want 3 in 1, 3, 2",
			ts, i, points, spans, consumers, listed)
	}
	if allocs != 0 {
		t.Errorf("core's per-task queries allocate %v objects per task, want 0", allocs)
	}

	// rank_spread's shape: five inputs with a 48-byte body each, so the
	// validated path also samples three fill bytes per input.
	sg := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: Spread, Radix: 5, OutputBytes: 64})
	sinputs := validInputs(sg, ts, i)
	if len(sinputs) != 5 {
		t.Fatalf("spread radix 5 (t=%d, i=%d): %d inputs, want 5", ts, i, len(sinputs))
	}
	sout := make([]byte, sg.OutputBytes)
	allocs = testing.AllocsPerRun(100, func() {
		err = sg.ExecutePoint(ts, i, sout, sinputs, scratch, true)
	})
	if err != nil {
		t.Fatalf("spread ExecutePoint: %v", err)
	}
	if allocs != 0 {
		t.Errorf("a validated five-input ExecutePoint allocates %v objects, want 0", allocs)
	}
}
