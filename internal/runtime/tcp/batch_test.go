package tcp

import (
	"bytes"
	"encoding/binary"
	"net"
	goruntime "runtime"
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

// frame packs little-endian 32-bit fields into wire bytes: a frame
// header is four fields, a batch header plus one descriptor eight.
func frame(fields ...uint32) []byte {
	b := make([]byte, 0, 4*len(fields))
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint32(b, f)
	}
	return b
}

// TestDemuxRejectsOversizedFrame pins the max-frame guard: a corrupt
// length prefix must tear the mesh down cleanly — error surfaced,
// Recvs unblocked — instead of attempting a quarter-gigabyte-plus
// allocation or hanging.
func TestDemuxRejectsOversizedFrame(t *testing.T) {
	tr, conn := corruptibleMesh(t)
	if _, err := conn.Write(frame(MaxFrameLen+1, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	expectTeardown(t, tr, "exceeds limit")
}

// malformedBatches are batch frames whose headers do not add up: a
// descriptor section that does not match the edge count, and payload
// lengths that overrun the declared body.
var malformedBatches = []struct {
	name  string
	frame []byte
	want  string
}{
	// 3 edges but 1 descriptor.
	{"desc_count_mismatch", frame(64, batchMarker, 3, 16), "malformed batch"},
	// Body: 1 descriptor + 8 payload bytes, but the payload claims 100.
	{"payload_overruns_body", frame(descSize+8, batchMarker, 1, descSize, 100, 0, 1, 0), "overrun"},
}

// TestDemuxRejectsMalformedBatch pins batch-header validation: both
// malformedBatches tear the mesh down.
func TestDemuxRejectsMalformedBatch(t *testing.T) {
	for _, c := range malformedBatches {
		t.Run(c.name, func(t *testing.T) {
			tr, conn := corruptibleMesh(t)
			if _, err := conn.Write(c.frame); err != nil {
				t.Fatal(err)
			}
			expectTeardown(t, tr, c.want)
		})
	}
}

// badRoutes are routes the demux must refuse; corruptibleMesh's only
// inbound edge is g0 1→0, 64-byte payloads.
var badRoutes = []struct {
	name                            string
	plen, graph, producer, consumer uint32
	want                            string
}{
	{"unknown_graph", 64, 3, 1, 0, "unknown edge g3 1→0"},
	{"unknown_edge", 64, 0, 0, 0, "unknown edge g0 0→0"},
	{"edge_consumed_elsewhere", 64, 0, 0, 1, "unknown edge g0 0→1"},
	{"column_out_of_range", 64, 0, 1, 1 << 20, "unknown edge"},
	{"payload_over_bound", 65, 0, 1, 0, "exceeds the graph's 64"},
}

// TestDemuxRejectsBadRoute pins the order of the demux checks: the
// route is resolved to a ring, and the payload length checked against
// the graph's OutputBytes, before a single body byte is read. Every
// case writes the header (or batch header and descriptor) only — a
// demux that went for the body first would sit in the read and never
// tear down.
func TestDemuxRejectsBadRoute(t *testing.T) {
	for _, c := range badRoutes {
		for _, f := range []struct {
			name  string
			frame []byte
		}{
			{"single", frame(c.plen, c.graph, c.producer, c.consumer)},
			{"batched", frame(descSize+c.plen, batchMarker, 1, descSize, c.plen, c.graph, c.producer, c.consumer)},
		} {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				tr, conn := corruptibleMesh(t)
				if _, err := conn.Write(f.frame); err != nil {
					t.Fatal(err)
				}
				expectTeardown(t, tr, c.want)
			})
		}
	}
}

// FuzzBatchFrame writes arbitrary bytes into a live mesh's inbound
// link after a valid handshake, then hangs up. Whatever the bytes, the
// mesh must end in an error (the hang-up guarantees one) within a
// deadline, every payload it delivered before that must fit the
// graph's 64-byte OutputBytes, nothing may panic, and the demux may
// allocate only in proportion to the bytes it was sent — far below
// MaxFrameLen, whatever the headers claim.
func FuzzBatchFrame(f *testing.F) {
	payload := bytes.Repeat([]byte{0xa5}, 64)
	f.Add(append(frame(descSize+64, batchMarker, 1, descSize, 64, 0, 1, 0), payload...))
	f.Add(append(frame(64, 0, 1, 0), payload...))
	f.Add(frame(MaxFrameLen+1, 0, 1, 0))
	f.Add(frame(MaxFrameLen, batchMarker, MaxFrameLen/descSize, MaxFrameLen))
	for _, c := range malformedBatches {
		f.Add(c.frame)
	}
	for _, c := range badRoutes {
		f.Add(frame(c.plen, c.graph, c.producer, c.consumer))
		f.Add(frame(descSize+c.plen, batchMarker, 1, descSize, c.plen, c.graph, c.producer, c.consumer))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, conn := corruptibleMesh(t)
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		go func() {
			conn.Write(data)
			conn.Close()
		}()
		drained := make(chan int, 1)
		go func() {
			for {
				p := tr.Recv(0, 1, 0)
				if p == nil || len(p) > 64 {
					drained <- len(p)
					return
				}
			}
		}()
		select {
		case n := <-drained:
			if n > 64 {
				t.Fatalf("delivered a %d-byte payload on a 64-byte graph", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("mesh neither delivered nor tore down within 10s")
		}
		if tr.Err() == nil {
			t.Fatal("Recv unblocked with nil but the mesh reports no error")
		}
		goruntime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<20); alloc > bound {
			t.Fatalf("%d input bytes drove %d bytes of allocation, want <= %d", len(data), alloc, bound)
		}
	})
}

// TestMeshFlushAllocatesNothing pins that a warm send and flush
// allocate nothing in either framing mode: the frame header and the
// writev vector live in the rank pair's pendBatch, not in locals whose
// address net.Buffers.WriteTo would move to the heap on every write.
// hotpathalloc reads source, so it cannot see allocations that only
// escape analysis introduces; this test can.
func TestMeshFlushAllocatesNothing(t *testing.T) {
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{{"batched", false}, {"unbatched", true}} {
		t.Run(mode.name, func(t *testing.T) {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1DPeriodic,
				OutputBytes: 64,
			}))
			app.Workers = 2
			_, tr := soloMesh(t, app, 2, mode.noBatch)
			defer tr.Close()
			payload := make([]byte, 64)
			step := func() {
				if err := tr.Send(0, 0, 0, 1, payload); err != nil {
					t.Fatal(err)
				}
				if err := tr.Flush(0); err != nil {
					t.Fatal(err)
				}
				if tr.Recv(0, 0, 1) == nil {
					t.Fatalf("Recv returned nil: %v", tr.Err())
				}
			}
			// Take the edge once round its ring so every slot and the
			// batch's buffers have reached their high-water marks.
			for k := 0; k <= edgeCap; k++ {
				step()
			}
			if got := testing.AllocsPerRun(100, step); got != 0 {
				t.Errorf("warm send+flush allocates %v objects, want 0", got)
			}
		})
	}
}
