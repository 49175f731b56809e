package core

import (
	"fmt"
	"testing"
)

// BenchmarkWriteOutput measures one payload fill at the benchmark's
// three output sizes: 16 B (header only: dag_stencil, the fleet), 64 B
// (a body below one vector block: rank_spread) and 4096 B (31 whole
// blocks and a tail: tcp_payload).
// bench/ twin: core.write_output_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkWriteOutput(b *testing.B) {
	g := MustNew(Params{Timesteps: 1, MaxWidth: 1})
	for _, n := range []int{16, 64, 4096} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			buf := make([]byte, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.WriteOutput(0, i, buf)
			}
		})
	}
}

// BenchmarkCheckInputs measures one warm validated ExecutePoint at zero
// grain at the benchmark's three input shapes: 3 × 16 B (stencil:
// dag_stencil, the fleet, header checks only), 5 × 64 B (spread radix
// 5: rank_spread) and 3 × 4096 B (nearest radix 3: tcp_payload).
// bench/ twin: core.execute_point_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkCheckInputs(b *testing.B) {
	for _, c := range []struct {
		name   string
		dep    DependenceType
		radix  int
		bytes  int
		inputs int
	}{
		{"stencil/3x16B", Stencil1D, 0, 16, 3},
		{"spread/5x64B", Spread, 5, 64, 5},
		{"nearest/3x4096B", Nearest, 3, 4096, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := MustNew(Params{Timesteps: 4, MaxWidth: 8, Dependence: c.dep, Radix: c.radix, OutputBytes: c.bytes})
			const ts, i = 2, 4
			inputs := validInputs(g, ts, i)
			if len(inputs) != c.inputs {
				b.Fatalf("%d inputs, want %d", len(inputs), c.inputs)
			}
			out := make([]byte, g.OutputBytes)
			if err := g.ExecutePoint(ts, i, out, inputs, nil, true); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := g.ExecutePoint(ts, i, out, inputs, nil, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
