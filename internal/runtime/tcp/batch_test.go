package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/runtime/exec"
)

// soloMesh builds a single-process mesh hosting every rank, the way
// the in-process tcp backend does.
func soloMesh(t testing.TB, app *core.App, ranks int) (*exec.RankPlan, *MeshTransport) {
	t.Helper()
	return wrappedMesh(t, app, ranks, nil)
}

// wrappedMesh is soloMesh with every outbound connection passed
// through wrap (Topology.Wrap), when non-nil.
func wrappedMesh(t testing.TB, app *core.App, ranks int, wrap func(net.Conn) net.Conn) (*exec.RankPlan, *MeshTransport) {
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
		Wrap:     wrap,
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

// TestBatchDemuxDeliversEveryEdge sends a distinct pattern on every
// cross-rank edge at rank counts 1–3 and requires the receiving side
// to observe it bit for bit on the edge it was sent on. Payload sizes
// straddle flushBytes so both the boundary flush and the mid-step
// threshold flush paths are exercised.
func TestBatchDemuxDeliversEveryEdge(t *testing.T) {
	for ranks := 1; ranks <= 3; ranks++ {
		for _, size := range []int{16, 1024, 48 << 10} {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 2, MaxWidth: 3 * ranks, Dependence: core.Stencil1DPeriodic,
				OutputBytes: size,
			}))
			app.Workers = ranks

			plan, tr := soloMesh(t, app, ranks)
			edges := plan.Edges(0)
			if ranks == 1 && len(edges) != 0 {
				t.Fatalf("single-rank plan has %d cross-rank edges, want 0", len(edges))
			}
			// Queue every cross-rank edge's payload from its producer's
			// rank, then flush each rank — the transport sequence of one
			// timestep.
			for k, e := range edges {
				from := exec.OwnerOf(e.Producer, app.Graphs[0].MaxWidth, ranks)
				buf := make([]byte, size)
				pattern(buf, byte(k+1))
				if err := tr.SendEdge(from, 0, k, buf); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < ranks; r++ {
				if err := tr.Flush(r); err != nil {
					t.Fatal(err)
				}
			}
			for k, e := range edges {
				payload := tr.Inbound().RecvEdge(0, k)
				if payload == nil {
					t.Fatalf("ranks=%d size=%d: Recv %d→%d returned nil (err: %v)",
						ranks, size, e.Producer, e.Consumer, tr.Err())
				}
				want := make([]byte, size)
				pattern(want, byte(k+1))
				if !bytes.Equal(payload, want) {
					t.Fatalf("ranks=%d size=%d: edge %d→%d corrupted", ranks, size, e.Producer, e.Consumer)
				}
			}
			tr.Close()
		}
	}
}

// TestMeshColumnAdapters pins the column-addressed Send, Recv and
// Recycle that bench/layers.go drives the mesh with: a payload sent by
// columns arrives on the edge's id once both ranks end the step, and
// one sent by id is received by columns with only the sender flushing —
// the adapters' per-message semantics. They go with ROADMAP 1(d).
func TestMeshColumnAdapters(t *testing.T) {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 4, Dependence: core.Stencil1DPeriodic, OutputBytes: 64,
	}))
	app.Workers = 2
	width := app.Graphs[0].MaxWidth
	// One engine step: every edge sent, every rank flushed once, then
	// the consumers' next step receives.
	t.Run("columns_to_id", func(t *testing.T) {
		plan, tr := soloMesh(t, app, 2)
		defer tr.Close()
		edges := plan.Edges(0)
		for k, e := range edges {
			want := make([]byte, 64)
			pattern(want, byte(k+1))
			if err := tr.Send(exec.OwnerOf(e.Producer, width, 2), 0, e.Producer, e.Consumer, want); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 2; r++ {
			if err := tr.Flush(r); err != nil {
				t.Fatal(err)
			}
		}
		for k, e := range edges {
			want := make([]byte, 64)
			pattern(want, byte(k+1))
			if got := tr.Inbound().RecvEdge(0, k); !bytes.Equal(got, want) {
				t.Fatalf("edge %d→%d: sent by columns, received %v by id (err: %v)", e.Producer, e.Consumer, got, tr.Err())
			}
		}
	})
	// Rank 0 only sends and rank 1 only receives, as in the probes: a
	// rank's Flush acknowledges the pairs it consumes, which the
	// per-message Recv would count a second time.
	t.Run("id_to_columns", func(t *testing.T) {
		plan, tr := soloMesh(t, app, 2)
		defer tr.Close()
		for k, e := range plan.Edges(0) {
			from := exec.OwnerOf(e.Producer, width, 2)
			if from != 0 {
				continue
			}
			want := make([]byte, 64)
			pattern(want, byte(k+1))
			if err := tr.SendEdge(from, 0, k, want); err != nil {
				t.Fatal(err)
			}
			if err := tr.Flush(from); err != nil {
				t.Fatal(err)
			}
			got := tr.Recv(0, e.Producer, e.Consumer)
			if !bytes.Equal(got, want) {
				t.Fatalf("edge %d→%d: sent by id, received %v by columns (err: %v)", e.Producer, e.Consumer, got, tr.Err())
			}
			tr.Recycle(0, got)
		}
	})
}

// TestMeshProbeRoundTrips runs exactly what bench/layers.go's
// tcp.send_small and tcp.send_large probes run — Send and Flush on rank
// 0, Recv and Recycle on rank 1, which never flushes — on the probes'
// 2-rank stencil mesh, far enough to wrap the edge's slots and pass the
// steps-ahead bound twice, and then holds the warm round trip to zero
// allocations, as the probes' per-message figures assume.
func TestMeshProbeRoundTrips(t *testing.T) {
	for _, size := range []int{16, 4 << 10} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			app := core.NewApp(core.MustNew(core.Params{
				Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1D, OutputBytes: size,
			}))
			_, tr := soloMesh(t, app, 2)
			defer tr.Close()
			payload := make([]byte, size)
			roundTrip := func(k int) error {
				if err := tr.Send(0, 0, 0, 1, payload); err != nil {
					return err
				}
				if err := tr.Flush(0); err != nil {
					return err
				}
				buf := tr.Recv(0, 0, 1)
				if len(buf) != size {
					return fmt.Errorf("round trip %d received %d bytes, want %d (err: %v)", k, len(buf), size, tr.Err())
				}
				tr.Recycle(0, buf)
				return nil
			}
			verdict := make(chan error, 1)
			go func() {
				for k := 0; k < 2*exec.EdgeCap+2; k++ {
					if err := roundTrip(k); err != nil {
						verdict <- err
						return
					}
				}
				var err error
				allocs := testing.AllocsPerRun(100, func() {
					if e := roundTrip(0); e != nil {
						err = e
					}
				})
				if err == nil && allocs != 0 {
					err = fmt.Errorf("warm round trip allocates %v objects, want 0", allocs)
				}
				verdict <- err
			}()
			select {
			case err := <-verdict:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("probe wedged\n%v", tr.in)
			}
		})
	}
}

// TestMeshBytesPerTask pins what the mesh puts on the wire for the
// shapes of the two workloads bench/ runs over it (its
// tcp.writes_per_step and tcp.bytes_per_task): one 2-rank p2p run at
// zero grain over connections that count their traffic. A wrapped
// connection is no longer a *net.TCPConn, so net.Buffers writes each
// vector of a batch frame (header, descriptors, each payload) with its
// own Write: the write count is of vectors.
func TestMeshBytesPerTask(t *testing.T) {
	for _, c := range []struct {
		name                        string
		params                      core.Params
		writesPerStep, bytesPerTask float64
	}{
		{"stencil_1d", core.Params{Timesteps: 20, MaxWidth: 4, Dependence: core.Stencil1D, OutputBytes: 16}, 5.7, 20.9},
		{"nearest", core.Params{Timesteps: 125, MaxWidth: 8, Dependence: core.Nearest, Radix: 3, OutputBytes: 4096}, 5.952, 1022.752},
	} {
		t.Run(c.name, func(t *testing.T) {
			app := core.NewApp(core.MustNew(c.params))
			app.Workers = 2
			var writes, sent atomic.Int64
			plan, tr := wrappedMesh(t, app, 2, func(conn net.Conn) net.Conn {
				return &writeCounter{Conn: conn, writes: &writes, bytes: &sent}
			})
			engine := exec.NewLocalRankEngine(plan, &policy{}, 1, tr)
			defer engine.Close()
			if err := engine.Run(true); err != nil {
				t.Fatal(err)
			}
			steps, tasks := float64(c.params.Timesteps), float64(app.TotalTasks())
			if got := float64(writes.Load()) / steps; got != c.writesPerStep {
				t.Errorf("writes/step = %v (%d writes), want %v", got, writes.Load(), c.writesPerStep)
			}
			if got := float64(sent.Load()) / tasks; got != c.bytesPerTask {
				t.Errorf("bytes/task = %v (%d bytes), want %v", got, sent.Load(), c.bytesPerTask)
			}
		})
	}
}

// TestMeshConnectBytes pins what connecting a mesh allocates, for the
// shapes of the two workloads bench/ runs over it. Each
// demultiplexer's read buffer holds four of its pair's largest frames,
// within [4 KiB, 64 KiB]: the fleet's 2-rank mesh of 44-byte frames
// connects in about 13 KB, where two 64 KiB buffers made it 136 KB,
// and tcp_payload's mesh of 4 KiB payloads in about 42 KB. The figure
// is the least of three connects, so one that shares the heap with a
// previous test's teardown does not count.
func TestMeshConnectBytes(t *testing.T) {
	for _, c := range []struct {
		name               string
		params             core.Params
		readSize, maxBytes int
	}{
		{"stencil_1d", core.Params{Timesteps: 20, MaxWidth: 4, Dependence: core.Stencil1D, OutputBytes: 16}, minReadBuf, 16 << 10},
		{"nearest", core.Params{Timesteps: 125, MaxWidth: 8, Dependence: core.Nearest, Radix: 3, OutputBytes: 4096}, 4 * (frameHeaderSize + descSize + 4096), 48 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := exec.BuildRankPlan(core.NewApp(core.MustNew(c.params)), 2)
			least := uint64(math.MaxUint64)
			for range 3 {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				var before, after goruntime.MemStats
				goruntime.ReadMemStats(&before)
				tr, err := NewMeshTransport(plan, Topology{
					Local:    exec.Span{Lo: 0, Hi: 2},
					Addrs:    []string{ln.Addr().String(), ln.Addr().String()},
					Listener: ln,
				})
				goruntime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				for from, to := range []int{1, 0} {
					if got := tr.readSize(tr.in.Inlet(from, to)); got != c.readSize {
						t.Errorf("read buffer of %d→%d = %d bytes, want %d", from, to, got, c.readSize)
					}
				}
				tr.Close()
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > uint64(c.maxBytes) {
				t.Errorf("connect allocates %d bytes, want at most %d", least, c.maxBytes)
			}
		})
	}
}

// writeCounter counts the Write calls and bytes of one connection into
// counters shared by the whole mesh.
type writeCounter struct {
	net.Conn
	writes, bytes *atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
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
		plan, tr := soloMesh(t, app, ranks)
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

// meshConfig is the config id of corruptibleMesh and meshAfter.
const meshConfig = 7

// halfPlan is the plan of one process of a 2-rank stencil mesh with
// 64-byte payloads that hosts only rank local.
func halfPlan(local int) *exec.RankPlan {
	app := core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1D,
		OutputBytes: 64,
	}))
	app.Workers = 2
	return exec.BuildRankPlanLocal(app, 2, exec.Span{Lo: local, Hi: local + 1})
}

// corruptibleMesh builds a 2-rank mesh whose rank 1 is played by the
// test: rank 0 dials it, and the returned connection is the test's end
// of the pair's one link, ready to carry arbitrary (including
// malformed) frames into rank 0.
func corruptibleMesh(t *testing.T) (*MeshTransport, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	// Rank 0 expects no inbound link: establishment ends once its dial
	// and handshake are in peer's backlog.
	tr, err := NewMeshTransport(halfPlan(0), Topology{
		Local: exec.Span{Lo: 0, Hi: 1}, Config: meshConfig,
		Addrs:    []string{ln.Addr().String(), peer.Addr().String()},
		Listener: ln, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("mesh establishment: %v", err)
	}
	t.Cleanup(tr.Close)
	peer.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if config, from, to, err := readHandshake(conn); err != nil || config != meshConfig || from != 0 || to != 1 {
		t.Fatalf("rank 0 opened its link with config %d, %d→%d (%v), want %d, 0→1", config, from, to, err, meshConfig)
	}
	conn.SetReadDeadline(time.Time{})
	return tr, conn
}

// meshAfter builds a 2-rank mesh whose rank 1 accepts on ln and whose
// rank 0 is played by the test, running before (if non-nil) once rank
// 1 is accepting and before the test's genuine link dials in.
func meshAfter(t *testing.T, ln net.Listener, before func()) {
	t.Helper()
	done := make(chan *MeshTransport, 1)
	fail := make(chan error, 1)
	go func() {
		tr, err := NewMeshTransport(halfPlan(1), Topology{
			// Rank 1 dials no one, so rank 0's address is never read.
			Local: exec.Span{Lo: 1, Hi: 2}, Config: meshConfig,
			Addrs:    []string{"", ln.Addr().String()},
			Listener: ln, Timeout: 10 * time.Second,
		})
		if err != nil {
			fail <- err
			return
		}
		done <- tr
	}()
	if before != nil {
		before()
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeHandshake(conn, meshConfig, 0, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case tr := <-done:
		t.Cleanup(tr.Close)
	case err := <-fail:
		t.Fatalf("mesh establishment: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("mesh establishment hung")
	}
}

// expectTeardown waits for the mesh to fail with an error mentioning
// want, and requires a pending receive to unblock with nil: rank 0
// keeps ending steps and receiving until it asks for a step that rank
// 1 never published.
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
	go func() {
		for {
			tr.Flush(0)
			if p := tr.Inbound().RecvEdge(0, inEdge); p == nil || tr.in.Steps(0) > exec.EdgeCap {
				recvDone <- p
				return
			}
		}
	}()
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
// header is four fields, a header plus one descriptor seven.
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
	if _, err := conn.Write(frame(MaxFrameLen+1, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	expectTeardown(t, tr, "exceeds limit")
}

// malformedBatches are frames whose headers do not add up: a step
// count that does not advance, a descriptor section that does not match
// the edge count, and payload lengths that overrun the declared body.
var malformedBatches = []struct {
	name  string
	frame []byte
	want  string
}{
	// A frame of the older per-edge format: graph index 0 where the
	// step count belongs, and no first frame is for step 0. Only the
	// header is sent, so a demux that read on into the body would never
	// tear down.
	{"not_a_batch_frame", frame(64, 0, 1, 0), "step 0 after step 0"},
	// 3 edges but 1 descriptor.
	{"desc_count_mismatch", frame(64, 1, 3, descSize), "malformed batch"},
	// Body: 1 descriptor + 8 payload bytes, but the payload claims 100.
	{"payload_overruns_body", frame(descSize+8, 1, 1, descSize, 100, 0, inEdge), "overrun"},
}

// TestDemuxRejectsStepOutOfOrder pins the desynchronization check the
// step count carries: after a frame closes step 2, a frame for step 2
// again, for step 1, or further ahead than the plan's steps allow tears
// the mesh down — and so does an early-cut frame followed by one for an
// older step.
func TestDemuxRejectsStepOutOfOrder(t *testing.T) {
	closing := append(frame(descSize+64, 2, 1, descSize, 64, 0, inEdge), make([]byte, 64)...)
	cut := append(frame(descSize+64, 2, 1|frameOpen, descSize, 64, 0, inEdge), make([]byte, 64)...)
	for _, c := range []struct {
		name   string
		before []byte
		frame  []byte
		want   string
	}{
		{"repeats_closed_step", closing, frame(0, 2, 0, 0), "step 2 after step 2"},
		{"goes_back", closing, frame(0, 1, 0, 0), "step 1 after step 2"},
		{"jumps_past_a_run", closing, frame(0, 5, 0, 0), "step 5 after step 2"},
		{"goes_back_from_open_step", cut, frame(0, 1, 0, 0), "step 1 after step 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, conn := corruptibleMesh(t)
			if _, err := conn.Write(append(c.before, c.frame...)); err != nil {
				t.Fatal(err)
			}
			expectTeardown(t, tr, c.want)
		})
	}
}

// TestDemuxRejectsMalformedBatch pins header validation: every
// malformedBatches case tears the mesh down.
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

// inEdge is the id of corruptibleMesh's only inbound edge, g0 1→0
// with 64-byte payloads; edge 1 is g0 0→1, consumed by the remote
// rank 1, and the graph has no others.
const inEdge = 0

// badRoutes are routes the demux must refuse. single is what the
// header of the older per-edge format carrying the route is refused
// for: its graph index sits where the step count belongs and its
// producer where the edge count does.
var badRoutes = []struct {
	name              string
	plen, graph, edge uint32
	want, single      string
}{
	{"unknown_graph", 64, 3, inEdge, "unknown edge g3 e0", "step 3 after step 0"},
	{"unknown_edge", 64, 0, 2, "unknown edge g0 e2", "step 0 after step 0"},
	{"edge_consumed_elsewhere", 64, 0, 1, "unknown edge g0 e1", "step 0 after step 0"},
	{"column_out_of_range", 64, 0, 0xFFFFFFFF, "unknown edge g0 e-1", "step 0 after step 0"},
	{"payload_over_bound", 65, 0, inEdge, "exceeds the graph's 64", "step 0 after step 0"},
}

// TestDemuxRejectsBadRoute pins the order of the demux checks: the
// payload length is checked against the graph's OutputBytes and the
// route — a graph out of range, an edge id this process does not
// consume, one past the graph's edges, a negative one — is resolved to
// a slot of the connection's pair before a single body byte is read.
// Every case writes the header (or batch header and descriptor) only —
// a demux that went for the body first would sit in the read and never
// tear down. The single variant carries the route in a header of the
// older per-edge format, which must be refused before its route is
// looked at.
func TestDemuxRejectsBadRoute(t *testing.T) {
	for _, c := range badRoutes {
		for _, f := range []struct {
			name  string
			frame []byte
			want  string
		}{
			{"single", frame(c.plen, c.graph, c.edge, 0), c.single},
			{"batched", frame(descSize+c.plen, 1, 1, descSize, c.plen, c.graph, c.edge), c.want},
		} {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				tr, conn := corruptibleMesh(t)
				if _, err := conn.Write(f.frame); err != nil {
					t.Fatal(err)
				}
				expectTeardown(t, tr, f.want)
			})
		}
	}
}

// FuzzBatchFrame writes arbitrary bytes into a live mesh's inbound
// link after a valid handshake, then hangs up. Some seeds are frames
// of the older per-edge format, which must tear the mesh down. Rank 0
// drains its inbound edge with the column Recv, which takes and
// acknowledges one published step at a time, so the demux never waits
// long on rank 0 (a step that carried no payload reads as an empty
// slot). Whatever the bytes, the mesh must end in an error (the
// hang-up guarantees one) within a deadline, every payload it
// delivered before that must fit the graph's 64-byte OutputBytes,
// nothing may panic, and the demux may allocate only in proportion to
// the bytes it was sent — far below MaxFrameLen, whatever the headers
// claim.
func FuzzBatchFrame(f *testing.F) {
	payload := bytes.Repeat([]byte{0xa5}, 64)
	f.Add(append(frame(descSize+64, 1, 1, descSize, 64, 0, inEdge), payload...))
	f.Add(append(append(frame(descSize+64, 1, 1|frameOpen, descSize, 64, 0, inEdge), payload...), frame(0, 1, 0, 0)...))
	f.Add(append(frame(64, 0, 1, 0), payload...))
	f.Add(frame(MaxFrameLen+1, 1, 1, 0))
	f.Add(frame(MaxFrameLen, 1, MaxFrameLen/descSize, MaxFrameLen/descSize*descSize))
	for _, c := range malformedBatches {
		f.Add(c.frame)
	}
	for _, c := range badRoutes {
		f.Add(frame(c.plen, c.graph, c.edge, 0))
		f.Add(frame(descSize+c.plen, 1, 1, descSize, c.plen, c.graph, c.edge))
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
				if len(p) > 64 || (p == nil && tr.Err() != nil) {
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
			t.Fatalf("mesh neither delivered nor tore down within 10s\n%v", tr.in)
		}
		goruntime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+1<<20); alloc > bound {
			t.Fatalf("%d input bytes drove %d bytes of allocation, want <= %d", len(data), alloc, bound)
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to a mesh on a stray inbound
// connection that arrives before the genuine peer's. Whatever the bytes,
// the stray must be closed, establishment must still complete within
// the handshake budget, and rejecting it may read no more than the
// fixed handshake and allocate nothing beyond that read's buffer. Bytes
// that are a genuine handshake for this mesh — its config, from rank 0
// to rank 1 — are a peer, not a stray: config ids are not secrets, so
// those inputs are skipped. A handshake with the right config whose
// receiving rank is not local, or whose sending rank is out of range
// or not below the receiving rank, is a stray.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(handshakeMagic)[:3])                                         // short read
	f.Add(frame(0x4d48_5442, meshConfig, 0, 0, 1))                           // bad magic
	f.Add(frame(handshakeMagic, 99, 0, 0, 1))                                // wrong config
	f.Add(frame(handshakeMagic, meshConfig, 0, 1, 0))                        // to: rank 0 is remote
	f.Add(frame(handshakeMagic, meshConfig, 0, 0, 0xFFFFFFFF))               // to: -1
	f.Add(frame(handshakeMagic, meshConfig, 0, 1, 1))                        // from: the receiving rank
	f.Add(frame(handshakeMagic, meshConfig, 0, 2, 1))                        // from: no such rank
	f.Add(append(frame(handshakeMagic, 99, 0, 0, 1), frame(64, 1, 1, 0)...)) // trailing frame
	f.Add(frame(handshakeMagic, meshConfig, 0, 0xFFFFFFFF, 1))               // from: -1
	f.Add(frame(handshakeMagic, meshConfig, 0, 0, 2))                        // to: no such rank
	f.Fuzz(func(t *testing.T, data []byte) {
		if config, from, to, err := readHandshake(bytes.NewReader(data)); err == nil && config == meshConfig && from == 0 && to == 1 {
			t.Skip("a genuine handshake for this mesh, not a stray")
		}
		var r bytes.Reader
		if n := testing.AllocsPerRun(100, func() { r.Reset(data); readHandshake(&r) }); n > 1 {
			t.Fatalf("rejecting %d stray bytes allocates %v objects, want <= 1 (the handshake buffer)", len(data), n)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counted := &countingListener{TCPListener: ln.(*net.TCPListener), read: map[string]*atomic.Int64{}}
		var stray net.Conn
		meshAfter(t, counted, func() {
			if stray, err = net.Dial("tcp", ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { stray.Close() })
			stray.Write(data)
			stray.(*net.TCPConn).CloseWrite()
		})
		var one [1]byte
		stray.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := stray.Read(one[:]); err == nil {
			t.Fatal("stray connection was admitted into the mesh")
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("stray connection left open")
		}
		if n := counted.bytesFrom(stray.LocalAddr()); n > handshakeSize {
			t.Fatalf("mesh read %d bytes from the stray, want <= %d", n, handshakeSize)
		}
	})
}

// countingListener counts the bytes read from each accepted
// connection, keyed by the dialer's address.
type countingListener struct {
	*net.TCPListener
	mu   sync.Mutex
	read map[string]*atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.read[c.RemoteAddr().String()] = n
	l.mu.Unlock()
	return &countingConn{Conn: c, n: n}, nil
}

// accepted is the number of connections the listener has accepted.
func (l *countingListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.read)
}

func (l *countingListener) bytesFrom(addr net.Addr) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.read[addr.String()].Load()
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// TestMeshFlushAllocatesNothing pins that a warm send and flush
// allocate nothing: the frame header and the writev vector live in the
// rank pair's pendBatch, not in locals whose address
// net.Buffers.WriteTo would move to the heap on every write.
// AllocsPerRun counts every goroutine's allocations, so the receiving
// demultiplexer's frame loop, which runs once per flush here, is held
// to zero too.
func TestMeshFlushAllocatesNothing(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		app := core.NewApp(core.MustNew(core.Params{
			Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1DPeriodic,
			OutputBytes: 64,
		}))
		app.Workers = 2
		plan, tr := soloMesh(t, app, 2)
		defer tr.Close()
		edge := plan.EdgeID(0, 0, 1)
		payload := make([]byte, 64)
		step := func() {
			if err := tr.SendEdge(0, 0, edge, payload); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 2; r++ {
				if err := tr.Flush(r); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Inbound().RecvEdge(0, edge) == nil {
				t.Fatalf("Recv returned nil: %v", tr.Err())
			}
		}
		// Take the edge once round its slots so every slot and the
		// batch's buffers have reached their high-water marks.
		for k := 0; k <= exec.EdgeCap; k++ {
			step()
		}
		if got := testing.AllocsPerRun(100, step); got != 0 {
			t.Errorf("warm send+flush allocates %v objects, want 0", got)
		}
	})
}
