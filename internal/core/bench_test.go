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
