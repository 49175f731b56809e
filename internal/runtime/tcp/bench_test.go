package tcp

import (
	"fmt"
	"testing"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// BenchmarkMeshSend measures one timestep's worth of cross-rank
// traffic — every cross-rank edge of an all-to-all graph sent, flushed
// and received back — through a loopback 2-rank mesh, with payload
// batching on (the default) and off. The batched mode's win at small
// payloads is the point of the batching layer.
// bench/ twin: tcp.send_{small,large}_ns; kept as the CI tripwire, since
// hosted runners cannot run the reference-clocked bench/.
func BenchmarkMeshSend(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"unbatched", true}} {
		for _, size := range []int{16, 1024, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", mode.name, size), func(b *testing.B) {
				benchMeshSend(b, size, mode.noBatch)
			})
		}
	}
}

func benchMeshSend(b *testing.B, size int, noBatch bool) {
	const ranks = 2
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 4 * ranks, Dependence: core.AllToAll,
		OutputBytes: size,
	}))
	app.Workers = ranks
	plan, tr := soloMesh(b, app, ranks, noBatch)
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
		for k, e := range edges {
			if err := tr.Send(owners[k], 0, e.Producer, e.Consumer, payloads[k]); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < ranks; r++ {
			if err := tr.Flush(r); err != nil {
				b.Fatal(err)
			}
		}
		for _, e := range edges {
			if tr.Recv(0, e.Producer, e.Consumer) == nil {
				b.Fatalf("Recv returned nil: %v", tr.Err())
			}
		}
	}
	// Every ring slot is allocated on its first use; take each edge once
	// round its ring so the timed loop is the steady state.
	for k := 0; k <= edgeCap; k++ {
		step()
	}
	b.SetBytes(int64(len(edges) * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
