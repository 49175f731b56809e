package tcp

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// soloMesh builds a single-process mesh hosting every rank, the way
// the in-process tcp backend does, with batching switched as given.
func soloMesh(t testing.TB, app *core.App, ranks int, noBatch bool) (*exec.RankPlan, *MeshTransport) {
	t.Helper()
	plan := exec.BuildRankPlan(app, ranks)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, ranks)
	for r := range addrs {
		addrs[r] = ln.Addr().String()
	}
	tr, err := NewMeshTransport(plan, Topology{
		Local:    exec.Span{Lo: 0, Hi: ranks},
		Addrs:    addrs,
		Listener: ln,
		NoBatch:  noBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan, tr
}

// pattern fills a deterministic per-edge payload so corruption or
// cross-edge routing mistakes change bytes, not just lengths.
func pattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed + byte(i*7)
	}
}

// TestBatchDemuxMatchesPerEdge sends the same cross-rank payloads
// through a batching mesh and a per-edge-frame mesh at rank counts 1–3
// and requires the receiving side to observe bit-for-bit identical
// bytes on every edge. Payload sizes straddle flushBytes so both the
// boundary flush and the mid-step threshold flush paths are exercised.
func TestBatchDemuxMatchesPerEdge(t *testing.T) {
	for ranks := 1; ranks <= 3; ranks++ {
		for _, size := range []int{16, 1024, 48 << 10} {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 2, MaxWidth: 3 * ranks, Dependence: core.Stencil1DPeriodic,
				OutputBytes: size,
			}))
			app.Workers = ranks

			got := [2]map[exec.Edge][]byte{}
			for mode, noBatch := range map[int]bool{0: false, 1: true} {
				plan, tr := soloMesh(t, app, ranks, noBatch)
				edges := plan.Edges(0)
				// Queue every cross-rank edge's payload from its
				// producer's rank, then flush each rank — the transport
				// sequence of one timestep.
				for k, e := range edges {
					from := exec.OwnerOf(e.Producer, app.Graphs[0].MaxWidth, ranks)
					buf := make([]byte, size)
					pattern(buf, byte(k+1))
					if err := tr.Send(from, 0, e.Producer, e.Consumer, buf); err != nil {
						t.Fatal(err)
					}
				}
				for r := 0; r < ranks; r++ {
					if err := tr.Flush(r); err != nil {
						t.Fatal(err)
					}
				}
				got[mode] = map[exec.Edge][]byte{}
				for k, e := range edges {
					payload := tr.Recv(0, e.Producer, e.Consumer)
					if payload == nil {
						t.Fatalf("ranks=%d size=%d noBatch=%v: Recv %d→%d returned nil (err: %v)",
							ranks, size, noBatch, e.Producer, e.Consumer, tr.Err())
					}
					want := make([]byte, size)
					pattern(want, byte(k+1))
					if !bytes.Equal(payload, want) {
						t.Fatalf("ranks=%d size=%d noBatch=%v: edge %d→%d corrupted",
							ranks, size, noBatch, e.Producer, e.Consumer)
					}
					got[mode][e] = payload
				}
				if ranks == 1 && len(edges) != 0 {
					t.Fatalf("single-rank plan has %d cross-rank edges, want 0", len(edges))
				}
				tr.Close()
			}
			for e, b := range got[0] {
				if !bytes.Equal(b, got[1][e]) {
					t.Fatalf("ranks=%d size=%d: batched and per-edge demux disagree on edge %d→%d",
						ranks, size, e.Producer, e.Consumer)
				}
			}
		}
	}
}

// TestBatchedEngineRuns drives full engine runs (validation on) over
// batched meshes at rank counts 1–3: the consumer-side checksum
// validation catches any payload the batching layer mangles, and the
// run completing at all proves flush points are deadlock-free.
func TestBatchedEngineRuns(t *testing.T) {
	for ranks := 1; ranks <= 3; ranks++ {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 20, MaxWidth: 3 * ranks, Dependence: core.Stencil1DPeriodic,
			OutputBytes: 256,
		}))
		app.Workers = ranks
		plan, tr := soloMesh(t, app, ranks, false)
		engine := exec.NewLocalRankEngine(plan, &policy{}, 1, tr)
		for run := 0; run < 2; run++ {
			plan.Reset()
			if err := engine.Run(true); err != nil {
				t.Fatalf("ranks=%d run %d: %v", ranks, run, err)
			}
		}
		engine.Close()
	}
}

// corruptibleMesh builds a 2-rank mesh whose rank 1 is played by the
// test: the returned connection is the test's end of the inbound link
// into rank 0, ready to carry arbitrary (including malformed) frames.
func corruptibleMesh(t *testing.T) (*MeshTransport, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1D,
		OutputBytes: 64,
	}))
	app.Workers = 2
	plan := exec.BuildRankPlanLocal(app, 2, exec.Span{Lo: 0, Hi: 1})
	// Rank 1's "process" accepts the mesh's outbound dial and sits on
	// it; only the inbound direction matters here.
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	go func() {
		for {
			if _, err := sink.Accept(); err != nil {
				return
			}
		}
	}()

	done := make(chan *MeshTransport, 1)
	fail := make(chan error, 1)
	go func() {
		tr, err := NewMeshTransport(plan, Topology{
			Local: exec.Span{Lo: 0, Hi: 1}, Config: 7,
			Addrs:    []string{ln.Addr().String(), sink.Addr().String()},
			Listener: ln, Timeout: 10 * time.Second,
		})
		if err != nil {
			fail <- err
			return
		}
		done <- tr
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHandshake(conn, 7, 1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case tr := <-done:
		t.Cleanup(tr.Close)
		t.Cleanup(func() { conn.Close() })
		return tr, conn
	case err := <-fail:
		t.Fatalf("mesh establishment: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("mesh establishment hung")
	}
	panic("unreachable")
}

// expectTeardown waits for the mesh to fail with an error mentioning
// want, and requires pending Recvs to unblock with nil.
func expectTeardown(t *testing.T, tr *MeshTransport, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tr.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("mesh never tore down after malformed frame")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tr.Err(); !strings.Contains(err.Error(), want) {
		t.Fatalf("teardown error %q does not mention %q", err, want)
	}
	recvDone := make(chan []byte, 1)
	go func() { recvDone <- tr.Recv(0, 1, 0) }()
	select {
	case payload := <-recvDone:
		if payload != nil {
			t.Fatal("Recv on torn-down mesh returned a payload")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung on torn-down mesh")
	}
}

// TestDemuxRejectsOversizedFrame pins the max-frame guard: a corrupt
// length prefix must tear the mesh down cleanly — error surfaced,
// Recvs unblocked — instead of attempting a quarter-gigabyte-plus
// allocation or hanging.
func TestDemuxRejectsOversizedFrame(t *testing.T) {
	tr, conn := corruptibleMesh(t)
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], MaxFrameLen+1)
	binary.LittleEndian.PutUint32(header[4:8], 0) // graph 0
	binary.LittleEndian.PutUint32(header[8:12], 1)
	binary.LittleEndian.PutUint32(header[12:16], 0)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	expectTeardown(t, tr, "exceeds limit")
}

// TestDemuxRejectsMalformedBatch pins batch-header validation: a
// descriptor section that does not match the edge count, and payload
// lengths that overrun the declared body, both tear the mesh down.
func TestDemuxRejectsMalformedBatch(t *testing.T) {
	t.Run("desc_count_mismatch", func(t *testing.T) {
		tr, conn := corruptibleMesh(t)
		var header [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(header[0:4], 64)
		binary.LittleEndian.PutUint32(header[4:8], batchMarker)
		binary.LittleEndian.PutUint32(header[8:12], 3)   // 3 edges…
		binary.LittleEndian.PutUint32(header[12:16], 16) // …but 1 descriptor
		if _, err := conn.Write(header[:]); err != nil {
			t.Fatal(err)
		}
		expectTeardown(t, tr, "malformed batch")
	})
	t.Run("payload_overruns_body", func(t *testing.T) {
		tr, conn := corruptibleMesh(t)
		var frame [frameHeaderSize + descSize]byte
		binary.LittleEndian.PutUint32(frame[0:4], descSize+8) // body: 1 desc + 8 payload bytes
		binary.LittleEndian.PutUint32(frame[4:8], batchMarker)
		binary.LittleEndian.PutUint32(frame[8:12], 1)
		binary.LittleEndian.PutUint32(frame[12:16], descSize)
		binary.LittleEndian.PutUint32(frame[16:20], 100) // …payload claims 100
		binary.LittleEndian.PutUint32(frame[20:24], 0)   // graph
		binary.LittleEndian.PutUint32(frame[24:28], 1)   // producer
		binary.LittleEndian.PutUint32(frame[28:32], 0)   // consumer
		if _, err := conn.Write(frame[:]); err != nil {
			t.Fatal(err)
		}
		expectTeardown(t, tr, "overrun")
	})
}

// TestDemuxRejectsBadRoute pins the order of the demux checks: the
// route is resolved to a ring, and the payload length checked against
// the graph's OutputBytes, before a single body byte is read. Every
// case writes the header (or batch header and descriptor) only — a
// demux that went for the body first would sit in the read and never
// tear down.
func TestDemuxRejectsBadRoute(t *testing.T) {
	// corruptibleMesh's only inbound edge is g0 1→0, 64-byte payloads.
	for _, c := range []struct {
		name                            string
		plen, graph, producer, consumer uint32
		want                            string
	}{
		{"unknown_graph", 64, 3, 1, 0, "unknown edge g3 1→0"},
		{"unknown_edge", 64, 0, 0, 0, "unknown edge g0 0→0"},
		{"edge_consumed_elsewhere", 64, 0, 0, 1, "unknown edge g0 0→1"},
		{"column_out_of_range", 64, 0, 1, 1 << 20, "unknown edge"},
		{"payload_over_bound", 65, 0, 1, 0, "exceeds the graph's 64"},
	} {
		route := func(b []byte) {
			binary.LittleEndian.PutUint32(b[0:4], c.plen)
			binary.LittleEndian.PutUint32(b[4:8], c.graph)
			binary.LittleEndian.PutUint32(b[8:12], c.producer)
			binary.LittleEndian.PutUint32(b[12:16], c.consumer)
		}
		t.Run(c.name+"/single", func(t *testing.T) {
			tr, conn := corruptibleMesh(t)
			var header [frameHeaderSize]byte
			route(header[:])
			if _, err := conn.Write(header[:]); err != nil {
				t.Fatal(err)
			}
			expectTeardown(t, tr, c.want)
		})
		t.Run(c.name+"/batched", func(t *testing.T) {
			tr, conn := corruptibleMesh(t)
			var frame [frameHeaderSize + descSize]byte
			binary.LittleEndian.PutUint32(frame[0:4], descSize+c.plen)
			binary.LittleEndian.PutUint32(frame[4:8], batchMarker)
			binary.LittleEndian.PutUint32(frame[8:12], 1)
			binary.LittleEndian.PutUint32(frame[12:16], descSize)
			route(frame[frameHeaderSize:])
			if _, err := conn.Write(frame[:]); err != nil {
				t.Fatal(err)
			}
			expectTeardown(t, tr, c.want)
		})
	}
}
