// Package tcp implements a hand-rolled distributed runtime: ranks
// communicate over real TCP connections with a length-prefixed wire
// protocol, rather than over in-process channels. It is the closest
// this repository gets to the paper's actual deployment model —
// separate address spaces joined by a network — and exercises
// connection establishment, framing, demultiplexing and flow control
// that the channel-based backends abstract away.
//
// Topology: a full mesh. Every ordered rank pair (s → r) gets one
// connection, written only by s and read by a demultiplexer goroutine
// at the process hosting r that reads each payload straight into its
// edge's slot ring. Outbound payloads are batched: everything a rank
// sends to one peer within a timestep coalesces into a single
// multi-edge frame written with one writev at the timestep boundary
// (exec.Flusher), so at fine granularity the per-task syscall cost
// amortizes across the whole step. The mesh is constructible in two
// shapes:
//
//   - In-process (the "tcp" backend): one process hosts every rank on
//     loopback. Scheduling is exactly the p2p backend's eager rank
//     policy — this package contributes only the exec.Transport adapter
//     that swaps the in-process fabric for the wire, plugged into the
//     shared exec.RankEngine via OpenTransport.
//   - Multi-process (cluster mode): each process hosts a contiguous
//     rank span of a plan built with exec.BuildRankPlanLocal, and
//     NewMeshTransport wires the spans together from an externally
//     supplied rank→address map (internal/cluster drives this).
//
// The inbound side is an exec.Fabric — the same per-edge slot rings the
// in-process backends use — built from the RankPlan's edge index for
// the edges this process consumes, so both transports agree exactly on
// which edges exist and how they are numbered.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"taskbench/internal/runtime"
	"taskbench/internal/runtime/exec"
	"taskbench/internal/runtime/p2p"
)

func init() {
	runtime.RegisterRanks(runtime.Info{
		Name:        "tcp",
		Analog:      "MPI p2p over sockets",
		Paradigm:    "message passing (real network transport)",
		Parallelism: "explicit",
		Distributed: true,
		Async:       false,
		Notes:       "full TCP mesh; length-prefixed frames; per-edge demux; cluster-capable",
	}, func() exec.RankPolicy { return &policy{} })
}

// policy is the p2p eager rank discipline over a wire transport: the
// scheduling paradigm is inherited wholesale from p2p; only the
// messaging substrate differs.
type policy struct {
	p2p.Policy
}

// OpenTransport implements exec.RankTransporter: it dials the full
// loopback mesh and builds the per-edge slot rings from the plan's
// cross-rank edge index. The engine owns (and Closes) the transport,
// so a reused RankSession pays connection establishment once per
// configuration instead of per run.
func (*policy) OpenTransport(plan *exec.RankPlan) (exec.Transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: listen: %w", err)
	}
	addrs := make([]string, plan.Ranks)
	for r := range addrs {
		addrs[r] = ln.Addr().String()
	}
	return NewMeshTransport(plan, Topology{
		Local:    exec.Span{Lo: 0, Hi: plan.Ranks},
		Addrs:    addrs,
		Listener: ln,
	})
}

// frameHeader is the fixed wire header preceding every payload:
// payload length, graph index, producer column, consumer column. A
// batched frame reuses the same 16 bytes with the graph field set to
// batchMarker: body length, marker, edge count, descriptor-section
// length.
const frameHeaderSize = 16

// MaxFrameLen bounds the length field of any frame (single payload or
// batch body). A corrupt or hostile length prefix beyond it tears the
// mesh down cleanly instead of driving an unbounded allocation. Far
// above any real payload: a graph column's output is OutputBytes,
// typically bytes to megabytes.
const MaxFrameLen = 1 << 28

// batchMarker in the header's graph field marks a batched frame. Real
// graph indices are small (one per task graph of an app), so the
// all-ones value can never collide.
const batchMarker = 0xFFFFFFFF

// descSize is the bytes per packed edge descriptor in a batch body:
// payload length, graph, producer, consumer — the same four fields a
// single-payload header carries.
const descSize = 16

// descChunk is how far the demux grows its descriptor scratch per read
// when a batch's descriptor section exceeds the scratch's capacity.
const descChunk = 64 << 10

// flushBytes caps how much payload a pending batch may accumulate
// before it is written out mid-step. Batches normally flush at
// timestep boundaries (exec.Flusher); the cap bounds buffering when a
// rank owns many wide columns.
const flushBytes = 128 << 10

// handshakeMagic opens every connection of a mesh, so a stray dialer
// (or a peer from a different configuration) is rejected instead of
// silently feeding frames into the wrong queues.
const handshakeMagic = 0x54424d48 // "TBMH"

// handshakeSize is magic + config id + from rank + to rank.
const handshakeSize = 4 + 8 + 4 + 4

// edgeCap bounds the frames in flight per edge; the step-lockstep
// structure keeps at most a couple outstanding.
const edgeCap = 8

// Topology describes one process's slice of a rank mesh: which ranks it
// hosts, where every rank's hosting process listens, and the pre-bound
// listener inbound links arrive on. The in-process backend uses the
// degenerate topology (every rank local, every address the same
// loopback listener); cluster workers get theirs from the coordinator.
type Topology struct {
	// Local is the contiguous span of ranks hosted by this process; it
	// must match the plan's Local span.
	Local exec.Span
	// Addrs[r] is the data address of the process hosting rank r. Must
	// have one entry per rank of the plan.
	Addrs []string
	// Config identifies the session in connection handshakes, so
	// concurrent meshes sharing hosts cannot cross-wire. Both sides of
	// every connection must agree.
	Config uint64
	// Listener receives the mesh's inbound connections. The transport
	// takes ownership and closes it once the mesh is established.
	Listener net.Listener
	// Timeout bounds mesh establishment (dials, handshakes and the wait
	// for inbound links). Zero means no deadline — appropriate only for
	// the in-process mesh, where all dialers are local.
	Timeout time.Duration
	// Cancel, when non-nil, aborts establishment early if it closes —
	// the cluster worker wires its session's release signal here so a
	// coordinator-declared peer death interrupts a mesh still dialing
	// the dead process instead of waiting out the full Timeout.
	Cancel <-chan struct{}
	// NoBatch disables outbound payload batching: every Send writes its
	// own frame immediately instead of coalescing per-peer until the
	// timestep boundary. For measuring the batching win
	// (BenchmarkMeshSend) and debugging; production meshes batch.
	NoBatch bool
	// Wrap, when non-nil, wraps every outbound (dialed) mesh connection
	// after its handshake — the chaos harness's injection point for
	// data-plane throttling and resets. The wrapper must preserve Close
	// semantics; mesh teardown closes through it.
	Wrap func(net.Conn) net.Conn
}

// MeshTransport is the TCP mesh of one engine, implementing
// exec.Transport. A torn-down mesh (Close, Abort, or a connection
// failure) unblocks every pending Recv with a zero-length payload that
// fails validation at the consumer, so a dead peer process produces an
// error, never a hang.
type MeshTransport struct {
	ranks int
	local exec.Span
	// widths[g] is graph g's max width, for routing frames to the
	// consumer's rank.
	widths []int
	// out[from][to] is the connection written by rank `from`; only
	// rows in the local span are populated.
	out [][]net.Conn
	// pend[from][to] accumulates the batch of payloads rank `from` has
	// queued for rank `to` this timestep; only local rows are
	// populated, and each cell is touched only by rank `from`'s
	// goroutine (the same single-writer discipline as out).
	pend    [][]pendBatch
	noBatch bool
	// plan maps the engine's dense edge ids back to the columns frames
	// carry (Edges) and bounds each graph's payloads (OutputBytes).
	plan *exec.RankPlan
	// in holds the slot rings of the edges this process consumes;
	// demultiplexers fill them, local ranks receive from them.
	in *exec.Fabric
	// errs records fatal transport errors from the demultiplexers.
	errs exec.ErrOnce

	// done is closed on teardown, releasing blocked Recvs and demux
	// handoffs.
	done     chan struct{}
	downOnce sync.Once
	// connMu guards conns, the registry of every dialed and accepted
	// connection. Teardown closes only through the registry — never by
	// walking out, which the constructor may still be populating when a
	// peer dies mid-establishment.
	connMu sync.Mutex
	conns  []net.Conn
	ln     net.Listener
}

// register records a connection for teardown. If the mesh is already
// torn down the connection is closed immediately and false returned.
func (tr *MeshTransport) register(conn net.Conn) bool {
	tr.connMu.Lock()
	defer tr.connMu.Unlock()
	select {
	case <-tr.done:
		conn.Close()
		return false
	default:
	}
	tr.conns = append(tr.conns, conn)
	return true
}

// NewMeshTransport builds this process's slice of the connection mesh
// — a slot ring for every locally consumed cross-rank edge, one
// outbound connection per (local rank, peer rank) pair, and one
// demultiplexer per inbound connection — and blocks until every
// expected inbound link has arrived. All processes of a topology must
// construct their transports concurrently: each side's dials complete
// against the others' pre-bound listeners.
func NewMeshTransport(plan *exec.RankPlan, topo Topology) (*MeshTransport, error) {
	ranks := plan.Ranks
	app := plan.App
	if len(topo.Addrs) != ranks {
		return nil, fmt.Errorf("tcp: topology has %d addrs, want %d", len(topo.Addrs), ranks)
	}
	tr := &MeshTransport{
		ranks:   ranks,
		local:   topo.Local,
		widths:  make([]int, len(app.Graphs)),
		plan:    plan,
		done:    make(chan struct{}),
		ln:      topo.Listener,
		noBatch: topo.NoBatch,
	}
	tr.pend = make([][]pendBatch, ranks)
	for from := topo.Local.Lo; from < topo.Local.Hi; from++ {
		tr.pend[from] = make([]pendBatch, ranks)
	}

	// Slot rings only for the edges this process consumes: a worker's
	// ring memory scales with its rank span, not the whole run. Sends
	// to remote consumers need no ring (frames leave on a connection),
	// and inbound frames are only ever addressed to local consumers.
	for gi, g := range app.Graphs {
		tr.widths[gi] = g.MaxWidth
	}
	tr.in = exec.NewFabric(plan, edgeCap, tr.done)

	var deadline time.Time
	if topo.Timeout > 0 {
		deadline = time.Now().Add(topo.Timeout)
	}

	// Every rank pair (s, r) with s ≠ r and r local produces one
	// inbound connection, regardless of which process hosts s.
	expect := topo.Local.Len() * (ranks - 1)
	tr.out = make([][]net.Conn, ranks)
	if topo.Cancel != nil {
		established := make(chan struct{})
		defer close(established)
		go func() {
			select {
			case <-topo.Cancel:
				tr.fail(fmt.Errorf("tcp: mesh establishment canceled"))
			case <-established:
			}
		}()
	}
	accepted := make(chan error, 1)
	go func() { accepted <- tr.acceptInbound(topo, expect, deadline) }()

	// Dial one connection per (local rank, peer rank) pair. Pairs
	// within this process still cross the loopback socket: the tcp
	// transport's contract is that every cross-rank payload pays real
	// framing and kernel-crossing costs.
	dialErr := func() error {
		for from := topo.Local.Lo; from < topo.Local.Hi; from++ {
			tr.out[from] = make([]net.Conn, ranks)
			for to := 0; to < ranks; to++ {
				if from == to {
					continue
				}
				conn, err := tr.dialUntil(topo.Addrs[to], deadline)
				if err != nil {
					return fmt.Errorf("tcp: dial rank %d (%s): %w", to, topo.Addrs[to], err)
				}
				if err := writeHandshake(conn, topo.Config, from, to); err != nil {
					conn.Close()
					return fmt.Errorf("tcp: handshake to rank %d: %w", to, err)
				}
				if topo.Wrap != nil {
					conn = topo.Wrap(conn)
				}
				if !tr.register(conn) {
					return fmt.Errorf("tcp: mesh torn down during establishment")
				}
				tr.out[from][to] = conn
			}
		}
		return nil
	}()
	if dialErr != nil {
		// Unblock the accept loop (it may be waiting, deadline-free in
		// the in-process topology, for links the failed dial phase will
		// never trigger) before collecting its verdict.
		topo.Listener.Close()
	}
	acceptErr := <-accepted
	topo.Listener.Close()
	if dialErr != nil || acceptErr != nil {
		tr.teardown()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, fmt.Errorf("tcp: accept: %w", acceptErr)
	}
	return tr, nil
}

// acceptInbound accepts connections until the expected number of mesh
// links have presented valid handshakes, one demultiplexer per link.
// Connections that are not mesh links — port scans, health probes,
// peers of a different configuration — are closed and ignored rather
// than failing establishment: on a real multi-host cluster the
// advertised data port sees unrelated traffic.
func (tr *MeshTransport) acceptInbound(topo Topology, expect int, deadline time.Time) error {
	if dl, ok := topo.Listener.(interface{ SetDeadline(time.Time) error }); ok && !deadline.IsZero() {
		dl.SetDeadline(deadline)
	}
	for linked := 0; linked < expect; {
		conn, err := topo.Listener.Accept()
		if err != nil {
			return err
		}
		// A silent stray connection must not stall the loop until the
		// whole establishment deadline; give each handshake a short
		// budget of its own.
		hsDeadline := time.Now().Add(10 * time.Second)
		if !deadline.IsZero() && deadline.Before(hsDeadline) {
			hsDeadline = deadline
		}
		conn.SetReadDeadline(hsDeadline)
		config, _, to, err := readHandshake(conn)
		if err != nil || config != topo.Config || to < topo.Local.Lo || to >= topo.Local.Hi {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		if !tr.register(conn) {
			return fmt.Errorf("mesh torn down during establishment")
		}
		go tr.demux(conn)
		linked++
	}
	return nil
}

// dialUntil dials addr, retrying in bounded attempts until the
// deadline: during concurrent mesh establishment a peer's listener is
// bound before its address is published, so refusals are transient
// only if the peer died — which the deadline (or a cancellation, via
// the transport's teardown) converts into an error. Attempts are kept
// short so a cancellation mid-dial is noticed within half a second,
// not at the deadline.
func (tr *MeshTransport) dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	for {
		select {
		case <-tr.done:
			return nil, fmt.Errorf("mesh torn down")
		default:
		}
		timeout := 10 * time.Second
		if !deadline.IsZero() {
			timeout = min(500*time.Millisecond, time.Until(deadline))
			if timeout <= 0 {
				return nil, fmt.Errorf("deadline exceeded")
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if !deadline.IsZero() && time.Now().Add(50*time.Millisecond).Before(deadline) {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		return nil, err
	}
}

func writeHandshake(conn net.Conn, config uint64, from, to int) error {
	var buf [handshakeSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], handshakeMagic)
	binary.LittleEndian.PutUint64(buf[4:12], config)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(from))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(to))
	_, err := conn.Write(buf[:])
	return err
}

func readHandshake(conn net.Conn) (config uint64, from, to int, err error) {
	var buf [handshakeSize]byte
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, 0, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != handshakeMagic {
		return 0, 0, 0, fmt.Errorf("bad handshake magic")
	}
	config = binary.LittleEndian.Uint64(buf[4:12])
	from = int(int32(binary.LittleEndian.Uint32(buf[12:16])))
	to = int(int32(binary.LittleEndian.Uint32(buf[16:20])))
	return config, from, to, nil
}

// demux reads frames from one connection into their edges' slot
// rings. The connection is read through a bufio.Reader, so one read
// syscall typically drains several small frames. A read failure while
// the mesh is still live means a peer process died mid-run; the whole
// mesh is torn down so blocked ranks unwedge and surface the error
// instead of hanging. Malformed frames — oversized lengths, headers
// that do not add up — also tear the mesh down: framing is
// self-inflicted, so a bad header means the stream is unrecoverably
// desynchronized.
//
//taskbench:hotpath
func (tr *MeshTransport) demux(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10) //taskbench:allocok one-time per-connection setup, before the loop
	var header [frameHeaderSize]byte
	var desc []byte // reusable batch descriptor scratch
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			tr.fail(fmt.Errorf("tcp: peer connection lost: %w", err))
			return
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length > MaxFrameLen {
			tr.fail(fmt.Errorf("tcp: frame length %d exceeds limit %d", length, MaxFrameLen))
			return
		}
		if binary.LittleEndian.Uint32(header[4:8]) == batchMarker {
			count := binary.LittleEndian.Uint32(header[8:12])
			descLen := binary.LittleEndian.Uint32(header[12:16])
			if uint64(descLen) != uint64(count)*descSize || descLen > length {
				tr.fail(fmt.Errorf("tcp: malformed batch header (%d edges, %d descriptor bytes, %d body)",
					count, descLen, length))
				return
			}
			// The scratch grows only as descriptor bytes arrive, so a
			// header that merely claims a huge section cannot make the
			// demux allocate what its sender never sends.
			desc = desc[:0]
			for len(desc) < int(descLen) {
				n := min(int(descLen)-len(desc), max(cap(desc)-len(desc), descChunk))
				desc = slices.Grow(desc, n) //taskbench:allocok descriptor scratch grows to its high-water mark, then reuses
				if _, err := io.ReadFull(br, desc[len(desc):len(desc)+n]); err != nil {
					tr.fail(fmt.Errorf("tcp: read batch descriptors: %w", err))
					return
				}
				desc = desc[:len(desc)+n]
			}
			body := int(length) - int(descLen)
			for k := 0; k < int(count); k++ {
				d := desc[k*descSize : (k+1)*descSize]
				plen := int(binary.LittleEndian.Uint32(d[0:4]))
				if plen > body {
					tr.fail(fmt.Errorf("tcp: batch payloads overrun body by %d bytes", plen-body))
					return
				}
				body -= plen
				if !tr.deliver(br, d[4:], plen) {
					return
				}
			}
			if body != 0 {
				tr.fail(fmt.Errorf("tcp: batch body has %d trailing bytes", body))
				return
			}
			continue
		}
		if !tr.deliver(br, header[4:], int(length)) {
			return
		}
	}
}

// deliver routes one payload of plen bytes: it resolves the 12 bytes
// of route (graph, producer, consumer) to the edge's ring, checks plen
// against the graph's payload bound, and only then reads the body from
// br straight into the ring's next slot. It returns false when the
// demux loop must stop (unknown edge, oversized payload, read failure
// or teardown), having already failed the mesh where that is
// warranted.
//
//taskbench:hotpath
func (tr *MeshTransport) deliver(br *bufio.Reader, route []byte, plen int) bool {
	graph := int(int32(binary.LittleEndian.Uint32(route[0:4])))
	producer := int(int32(binary.LittleEndian.Uint32(route[4:8])))
	consumer := int(int32(binary.LittleEndian.Uint32(route[8:12])))
	ring := tr.in.Ring(graph, producer, consumer)
	if ring == nil {
		tr.fail(fmt.Errorf("tcp: frame for unknown edge g%d %d→%d", graph, producer, consumer))
		return false
	}
	// No payload of a graph is longer than its OutputBytes, so a frame
	// that claims more is malformed.
	if bound := tr.plan.App.Graphs[graph].OutputBytes; plen > bound {
		tr.fail(fmt.Errorf("tcp: payload of %d bytes on edge g%d %d→%d exceeds the graph's %d",
			plen, graph, producer, consumer, bound))
		return false
	}
	slot := ring.Acquire(plen)
	if slot == nil {
		return false // torn down while the edge was full
	}
	if _, err := io.ReadFull(br, slot); err != nil {
		tr.fail(fmt.Errorf("tcp: read payload: %w", err))
		return false
	}
	ring.Publish()
	return true
}

// fail records a transport error and tears the mesh down, unless the
// mesh is already being torn down (in which case connection errors are
// the expected echo of our own Close).
func (tr *MeshTransport) fail(err error) {
	select {
	case <-tr.done:
		return
	default:
	}
	tr.errs.Set(err)
	tr.teardown()
}

// Abort tears the mesh down with the given error, unblocking every
// pending Recv and failing subsequent Sends. The cluster worker calls
// it when the coordinator declares a peer dead while this process's
// connections still look healthy (e.g. a stalled peer).
func (tr *MeshTransport) Abort(err error) { tr.fail(err) }

func (tr *MeshTransport) teardown() {
	tr.downOnce.Do(func() {
		close(tr.done)
		tr.connMu.Lock()
		for _, c := range tr.conns {
			c.Close()
		}
		tr.connMu.Unlock()
		if tr.ln != nil {
			tr.ln.Close()
		}
	})
}

// Recycle is a no-op kept for callers written against the free-list
// mesh: a received payload is a ring slot, released by the next Recv
// on its edge.
func (tr *MeshTransport) Recycle(graph int, payload []byte) {}

// pendBatch accumulates one rank pair's outbound payloads between
// flushes: packed edge descriptors, zero-copy references to the
// payload buffers, and the frame header and iovec of the next write.
// The references stay valid until the flush because payload rows are
// double-buffered — a buffer sent at timestep t is not rewritten until
// t+2, and the batch flushes at the t/t+1 boundary (exec.Flusher) or
// sooner (flushBytes). Per-edge frames (NoBatch) use only header and
// iov.
type pendBatch struct {
	desc     []byte
	payloads [][]byte
	bytes    int
	// header and iov are fields, not locals, because WriteTo takes its
	// receiver's address: a local net.Buffers, and a header array
	// sliced into it, would move to the heap on every write.
	header [frameHeaderSize]byte
	iov    net.Buffers
}

// putHeader fills p.header with a frame header's four fields.
func (p *pendBatch) putHeader(length, graph, producer, consumer uint32) {
	binary.LittleEndian.PutUint32(p.header[0:4], length)
	binary.LittleEndian.PutUint32(p.header[4:8], graph)
	binary.LittleEndian.PutUint32(p.header[8:12], producer)
	binary.LittleEndian.PutUint32(p.header[12:16], consumer)
}

// writev sends p.iov to conn as a single writev. WriteTo consumes the
// vector it is called on, so the backing array is restored for the
// next write.
//
//taskbench:hotpath
func (p *pendBatch) writev(conn net.Conn) error {
	iov := p.iov
	_, err := p.iov.WriteTo(conn)
	p.iov = iov[:0]
	return err
}

// SendEdge implements exec.Transport: the engine names the edge by its
// dense id, the wire by its columns.
//
//taskbench:hotpath
func (tr *MeshTransport) SendEdge(fromRank, graph, edge int, payload []byte) error {
	e := tr.plan.Edges(graph)[edge]
	return tr.Send(fromRank, graph, e.Producer, e.Consumer, payload)
}

// Send queues the payload for the consumer's rank, coalescing
// everything headed to the same peer this timestep into one batched
// frame written at the flush point. Only the owning rank goroutine
// writes a given connection (or touches its pending batches), so no
// locking is needed. With batching disabled the frame still leaves in
// a single writev — header and payload in one syscall, not two.
//
//taskbench:hotpath
func (tr *MeshTransport) Send(fromRank, graph, producer, consumer int, payload []byte) error {
	toRank := exec.OwnerOf(consumer, tr.widths[graph], tr.ranks)
	conn := tr.out[fromRank][toRank]
	if conn == nil {
		return fmt.Errorf("tcp: no connection rank %d→%d (mesh torn down?)", fromRank, toRank)
	}
	p := &tr.pend[fromRank][toRank]
	if tr.noBatch {
		p.putHeader(uint32(len(payload)), uint32(graph), uint32(producer), uint32(consumer))
		p.iov = append(p.iov[:0], p.header[:], payload) //taskbench:allocok iovec allocated on the pair's first frame, then reused
		if err := p.writev(conn); err != nil {
			return fmt.Errorf("tcp: write frame: %w", err)
		}
		return nil
	}
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(len(payload)))
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(graph))
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(producer))
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(consumer))
	p.payloads = append(p.payloads, payload) //taskbench:allocok grows to the per-step batch high-water mark, then reuses
	p.bytes += len(payload)
	if p.bytes >= flushBytes {
		return tr.flushTo(fromRank, toRank)
	}
	return nil
}

// Flush implements exec.Flusher: it writes out every batch rank has
// pending, one writev per peer with queued payloads. The engine calls
// it at each timestep boundary on the rank's own goroutine.
//
//taskbench:hotpath
func (tr *MeshTransport) Flush(rank int) error {
	if tr.noBatch || rank < tr.local.Lo || rank >= tr.local.Hi {
		return nil
	}
	for to := 0; to < tr.ranks; to++ {
		if to == rank {
			continue
		}
		if err := tr.flushTo(rank, to); err != nil {
			return err
		}
	}
	return nil
}

// flushTo writes the pending batch for one rank pair as a single
// writev: batch header, descriptor section, then every payload,
// borrowed zero-copy from the senders. Called only from rank `from`'s
// goroutine.
//
//taskbench:hotpath
func (tr *MeshTransport) flushTo(from, to int) error {
	p := &tr.pend[from][to]
	if len(p.payloads) == 0 {
		return nil
	}
	p.putHeader(uint32(len(p.desc)+p.bytes), batchMarker, uint32(len(p.payloads)), uint32(len(p.desc)))
	p.iov = append(p.iov[:0], p.header[:], p.desc) //taskbench:allocok iovec grows to its high-water mark, then reuses
	p.iov = append(p.iov, p.payloads...)           //taskbench:allocok iovec grows to its high-water mark, then reuses
	err := p.writev(tr.out[from][to])
	p.desc = p.desc[:0]
	p.payloads = p.payloads[:0]
	p.bytes = 0
	if err != nil {
		return fmt.Errorf("tcp: write batch rank %d→%d: %w", from, to, err)
	}
	return nil
}

// RecvEdge implements exec.Transport: it blocks until the next frame
// on the edge arrives — or the mesh is torn down, in which case it
// returns a nil payload that fails validation at the consumer. Keeping
// the protocol flowing after a failure is what turns a killed peer
// process into a clean job error instead of a hang.
//
//taskbench:hotpath
func (tr *MeshTransport) RecvEdge(graph, edge int) []byte {
	return tr.in.RecvEdge(graph, edge)
}

// Recv is RecvEdge addressed by columns. The edge must be one this
// process consumes.
//
//taskbench:hotpath
func (tr *MeshTransport) Recv(graph, producer, consumer int) []byte {
	return tr.in.Recv(graph, producer, consumer)
}

// Err reports any asynchronous demultiplexer failure.
func (tr *MeshTransport) Err() error { return tr.errs.Err() }

// Close shuts down the mesh; demultiplexers exit on the closed
// connections.
func (tr *MeshTransport) Close() { tr.teardown() }
