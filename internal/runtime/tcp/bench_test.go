package tcp

import (
	"fmt"
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// BenchmarkMeshSend measures one timestep's worth of cross-rank
// traffic — every cross-rank edge of an all-to-all graph sent, flushed
// and received back — through a loopback 2-rank mesh.
// bench/ twin: tcp.send_{small,large}_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkMeshSend(b *testing.B) {
	for _, size := range []int{16, 1024, 64 << 10} {
		b.Run(fmt.Sprintf("batched/%dB", size), func(b *testing.B) {
			benchMeshSend(b, size)
		})
	}
}

func benchMeshSend(b *testing.B, size int) {
	const ranks = 2
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 4 * ranks, Dependence: core.AllToAll,
		OutputBytes: size,
	}))
	app.Workers = ranks
	plan, tr := soloMesh(b, app, ranks)
	defer tr.Close()

	edges := plan.Edges(0)
	if len(edges) == 0 {
		b.Fatal("all-to-all plan has no cross-rank edges")
	}
	owners := make([]int, len(edges))
	payloads := make([][]byte, len(edges))
	for k, e := range edges {
		owners[k] = exec.OwnerOf(e.Producer, app.Graphs[0].MaxWidth, ranks)
		payloads[k] = make([]byte, size)
		pattern(payloads[k], byte(k+1))
	}

	step := func() {
		for k := range edges {
			if err := tr.SendEdge(owners[k], 0, k, payloads[k]); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < ranks; r++ {
			if err := tr.Flush(r); err != nil {
				b.Fatal(err)
			}
		}
		for k := range edges {
			if tr.Inbound().RecvEdge(0, k) == nil {
				b.Fatalf("Recv returned nil: %v", tr.Err())
			}
		}
	}
	// Every slot is allocated on its first use; take each edge once
	// round its slots so the timed loop is the steady state.
	for k := 0; k <= exec.EdgeCap; k++ {
		step()
	}
	b.SetBytes(int64(len(edges) * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
