// Package tcp implements a hand-rolled distributed runtime: ranks
// communicate over real TCP connections with a length-prefixed wire
// protocol, rather than over in-process channels. It is the closest
// this repository gets to the paper's actual deployment model —
// separate address spaces joined by a network — and exercises
// connection establishment, framing, demultiplexing and flow control
// that the channel-based backends abstract away.
//
// Topology: a full mesh. Every rank pair {a < b} gets one connection,
// dialed by a's process and accepted by b's. Each end is written only
// by its local rank and read by a demultiplexer goroutine that reads
// each payload straight into its edge's slot and stands in for the
// peer rank on the pair's step sequencer.
// Outbound payloads are batched: everything a rank sends to one peer
// within a timestep coalesces into a single multi-edge frame written
// with one writev at the timestep boundary (exec.Transport's Flush),
// and the frame carries the sender's step count, so at fine
// granularity the per-task syscall cost amortizes across the whole
// step and the receiver publishes once per frame. The mesh is
// constructible in two shapes:
//
//   - In-process (the "tcp" backend): one process hosts every rank on
//     loopback. Scheduling is exactly the p2p backend's eager rank
//     policy — this package contributes only the exec.Transport adapter
//     that puts the wire in front of an inbound fabric, plugged into
//     the shared exec.RankEngine via OpenTransport.
//   - Multi-process (cluster mode): each process hosts a contiguous
//     rank span of a plan built with exec.BuildRankPlanLocal, and
//     NewMeshTransport wires the spans together from an externally
//     supplied rank→address map (internal/cluster drives this).
//
// The inbound side is an exec.Fabric — the same per-edge slots and
// per-pair sequencers the in-process backends use — built from the
// RankPlan's edge index for the edges this process consumes, so both
// transports agree exactly on which edges exist and how they are
// numbered: a frame names an edge by graph and dense id, as the engine
// does, and the demux indexes its slots. The engine receives from that
// fabric directly (MeshTransport.Inbound, Fabric.RecvEdge): the
// transport only sends, flushes and tears down, and a receive costs
// the same as over the in-process fabric.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
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
// loopback mesh and builds the per-edge slots from the plan's
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

// frameHeader is the fixed wire header opening every frame: body
// length, the sender's step count, edge count (with frameOpen),
// descriptor-section length.
const frameHeaderSize = 16

// MaxFrameLen bounds the body length field of any frame. A corrupt or
// hostile length prefix beyond it tears the mesh down cleanly instead
// of driving an unbounded allocation. Far above any real payload: a
// graph column's output is OutputBytes, typically bytes to megabytes.
const MaxFrameLen = 1 << 28

// frameOpen marks, in a header's edge-count field, a frame cut early
// by flushBytes: its step is still open, so the receiver publishes
// nothing until the frame that closes it. No real edge count reaches
// the bit (MaxFrameLen bounds it far lower).
const frameOpen = 1 << 31

// descSize is the bytes per packed edge descriptor in a batch body:
// payload length, graph (whose OutputBytes bound it), dense edge id.
const descSize = 12

// descChunk is how far the demux grows its descriptor scratch per read
// when a batch's descriptor section exceeds the scratch's capacity.
const descChunk = 64 << 10

// minReadBuf and maxReadBuf bound a demultiplexer's read buffer (see
// readSize).
const (
	minReadBuf = 4 << 10
	maxReadBuf = 64 << 10
)

// flushBytes caps how much payload a pending batch may accumulate
// before it is written out mid-step, as a frameOpen frame. Batches
// normally flush at timestep boundaries; the cap bounds buffering when
// a rank owns many wide columns.
const flushBytes = 128 << 10

// handshakeMagic opens every connection of a mesh, so a stray dialer
// (or a peer from a different configuration) is rejected instead of
// silently feeding frames into the wrong queues.
const handshakeMagic = 0x54424d48 // "TBMH"

// handshakeSize is magic + config id + from rank + to rank.
const handshakeSize = 4 + 8 + 4 + 4

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
	// Cancel, when non-nil, tears the mesh down whenever it closes, for
	// the mesh's whole lifetime: during establishment it interrupts a
	// mesh still dialing a dead process instead of waiting out the full
	// Timeout, and afterwards it unwedges a run blocked on a stalled
	// peer. The cluster worker wires its session's release signal here.
	Cancel <-chan struct{}
	// Wrap, when non-nil, wraps every connection end this process
	// writes, dialed or accepted, after its handshake — the chaos
	// harness's injection point for data-plane throttling and resets.
	// The wrapper must preserve Close semantics; mesh teardown closes
	// through it.
	Wrap func(net.Conn) net.Conn
}

// MeshTransport is the TCP mesh of one engine, implementing
// exec.Transport and naming its inbound fabric through Inbound. A
// torn-down mesh (Close, a closed Topology.Cancel, or a connection
// failure) unblocks every pending receive with a zero-length payload
// that fails validation at the consumer, so a dead peer process
// produces an error, never a hang.
type MeshTransport struct {
	// out[from][to] is rank `from`'s end of the pair's connection;
	// only rows in the local span are populated.
	out [][]net.Conn
	// pend[from][to] accumulates the batch of payloads rank `from` has
	// queued for rank `to` this timestep; only local rows are
	// populated, and each cell is touched only by rank `from`'s
	// driver (the same single-writer discipline as out).
	pend [][]pendBatch
	// plan holds Local (which must match the topology's), routes an edge
	// id to its consumer's rank and bounds each graph's payloads.
	plan *exec.RankPlan
	// in holds the slots of the edges this process consumes;
	// demultiplexers fill and publish them, local ranks receive from
	// them and acknowledge at Flush.
	in *exec.Fabric
	// errs records fatal transport errors from the demultiplexers.
	errs exec.ErrOnce

	// done is closed on teardown, releasing blocked Recvs and demux
	// handoffs.
	done     chan struct{}
	downOnce sync.Once
	// wg counts the goroutines the transport started: the
	// demultiplexers, the acceptor and the Topology.Cancel watcher.
	// Close waits for them.
	wg sync.WaitGroup
	// connMu guards conns, the registry of every dialed and accepted
	// connection. Teardown closes only through the registry — never by
	// walking out, which the constructor may still be populating when a
	// peer dies mid-establishment.
	connMu sync.Mutex
	conns  []net.Conn
	ln     net.Listener
}

// link installs rank local's end of its connection to rank peer: local
// writes it (through wrap, if set), a demultiplexer reads it, teardown
// closes it. It returns false, the end closed, if the mesh is torn down.
func (tr *MeshTransport) link(conn net.Conn, local, peer int, wrap func(net.Conn) net.Conn) bool {
	w := conn
	if wrap != nil {
		w = wrap(conn)
	}
	in := tr.in.Inlet(peer, local)
	br := bufio.NewReaderSize(conn, tr.readSize(in))
	tr.connMu.Lock()
	defer tr.connMu.Unlock()
	select {
	case <-tr.done:
		w.Close()
		return false
	default:
	}
	tr.conns = append(tr.conns, w)
	tr.out[local][peer] = w
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		tr.demux(br, in)
	}()
	return true
}

// readSize sizes a demultiplexer's read buffer to hold four of the
// largest frames its pair can carry in one step, so one read syscall
// still drains several frames, within [minReadBuf, maxReadBuf]: a
// fleet-shape mesh's frames are tens of bytes, and every connect pays
// for two buffers per rank pair.
func (tr *MeshTransport) readSize(in *exec.Inlet) int {
	frame := frameHeaderSize
	for gi, g := range tr.plan.App.Graphs {
		frame += in.Edges(gi) * (descSize + g.OutputBytes)
	}
	return min(max(4*frame, minReadBuf), maxReadBuf)
}

// NewMeshTransport builds this process's slice of the connection mesh
// — slots for every locally consumed cross-rank edge, one connection
// end per (local rank, peer rank) pair, and one demultiplexer per end —
// and blocks until every expected inbound link has arrived. All
// processes of a topology must construct their transports
// concurrently: each side's dials complete against the others'
// pre-bound listeners.
func NewMeshTransport(plan *exec.RankPlan, topo Topology) (*MeshTransport, error) {
	ranks := plan.Ranks
	if len(topo.Addrs) != ranks {
		return nil, fmt.Errorf("tcp: topology has %d addrs, want %d", len(topo.Addrs), ranks)
	}
	tr := &MeshTransport{
		plan: plan,
		done: make(chan struct{}),
		ln:   topo.Listener,
	}
	// A local rank b accepts one link from each lower rank a, whichever
	// process hosts it, and dials each higher one.
	tr.out, tr.pend = make([][]net.Conn, ranks), make([][]pendBatch, ranks)
	expect := 0
	for r := topo.Local.Lo; r < topo.Local.Hi; r++ {
		tr.out[r], tr.pend[r] = make([]net.Conn, ranks), make([]pendBatch, ranks)
		expect += r
	}

	// Slots only for the edges this process consumes: a worker's slot
	// memory scales with its rank span, not the whole run. Sends to
	// remote consumers need no slots (frames leave on a connection),
	// and inbound frames are only ever addressed to local consumers.
	tr.in = exec.NewFabric(plan)

	var deadline time.Time
	if topo.Timeout > 0 {
		deadline = time.Now().Add(topo.Timeout)
	}

	if topo.Cancel != nil {
		tr.wg.Add(1)
		go func() {
			defer tr.wg.Done()
			select {
			case <-topo.Cancel:
				tr.fail(fmt.Errorf("tcp: mesh canceled"))
			case <-tr.done:
			}
		}()
	}
	accepted := make(chan error, 1)
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		accepted <- tr.acceptInbound(topo, expect, deadline)
	}()

	// Dial one connection per (local rank, higher rank) pair. Pairs
	// within this process still cross the loopback socket: the tcp
	// transport's contract is that every cross-rank payload pays real
	// framing and kernel-crossing costs.
	dialErr := func() error {
		for from := topo.Local.Lo; from < topo.Local.Hi; from++ {
			for to := from + 1; to < ranks; to++ {
				conn, err := tr.dialUntil(topo.Addrs[to], deadline)
				if err != nil {
					return fmt.Errorf("tcp: dial rank %d (%s): %w", to, topo.Addrs[to], err)
				}
				if err := writeHandshake(conn, topo.Config, from, to); err != nil {
					conn.Close()
					return fmt.Errorf("tcp: handshake to rank %d: %w", to, err)
				}
				if !tr.link(conn, from, to, topo.Wrap) {
					return fmt.Errorf("tcp: mesh torn down during establishment")
				}
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
		tr.Close()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, fmt.Errorf("tcp: accept: %w", acceptErr)
	}
	return tr, nil
}

// acceptInbound accepts connections until every local rank has a link,
// with a valid handshake, from each lower rank.
// Connections that are not mesh links — port scans, health probes,
// peers of a different configuration — are closed and ignored rather
// than failing establishment: on a real multi-host cluster the
// advertised data port sees unrelated traffic.
func (tr *MeshTransport) acceptInbound(topo Topology, expect int, deadline time.Time) error {
	if dl, ok := topo.Listener.(interface{ SetDeadline(time.Time) error }); ok && !deadline.IsZero() {
		dl.SetDeadline(deadline)
	}
	// One demultiplexer per pair: a second link claiming a pair would
	// race the first for its slots.
	linked := map[[2]int]bool{}
	for len(linked) < expect {
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
		config, from, to, err := readHandshake(conn)
		link := [2]int{from, to}
		if err != nil || config != topo.Config || to < topo.Local.Lo || to >= topo.Local.Hi ||
			from < 0 || from >= to || linked[link] {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		if !tr.link(conn, to, from, topo.Wrap) {
			return fmt.Errorf("mesh torn down during establishment")
		}
		linked[link] = true
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

// errBadMagic is static so a stray connection's rejection allocates
// nothing beyond the fixed handshake read.
var errBadMagic = errors.New("bad handshake magic")

func readHandshake(r io.Reader) (config uint64, from, to int, err error) {
	var buf [handshakeSize]byte
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, 0, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != handshakeMagic {
		return 0, 0, 0, errBadMagic
	}
	config = binary.LittleEndian.Uint64(buf[4:12])
	from = int(int32(binary.LittleEndian.Uint32(buf[12:16])))
	to = int(int32(binary.LittleEndian.Uint32(buf[16:20])))
	return config, from, to, nil
}

// demux reads frames from one connection into their edges' slots,
// standing in for the sending rank on the pair's sequencer (in): it
// waits for the consumer's acknowledgements before filling a step's
// slots, as a local producer would, and publishes the step once the
// frame that closes it is in. The connection is read through br,
// sized by readSize, so one read syscall typically drains several
// frames. A read failure while the mesh is still live means a peer
// process died mid-run; the whole mesh is torn down so blocked ranks
// unwedge and surface the error instead of hanging. Malformed frames —
// oversized lengths, a step count that does not advance, headers that
// do not add up — also tear the mesh down: framing is self-inflicted,
// so a bad header means the stream is unrecoverably desynchronized.
func (tr *MeshTransport) demux(br *bufio.Reader, in *exec.Inlet) {
	var header [frameHeaderSize]byte
	var desc []byte // reusable batch descriptor scratch
	// step is the sender's step count of the last frame, and open
	// whether that frame left its step open.
	var step uint64
	open := false
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
		// The wire carries the low 32 bits of the step count. It must
		// move past a closed step, stay on an open one, and never go
		// back; and a pair that carries messages at all does so at least
		// once per run of MaxSteps steps, which bounds a step's advance.
		low := binary.LittleEndian.Uint32(header[4:8])
		advance := int64(int32(low - uint32(step)))
		if advance < 0 || advance > int64(tr.plan.MaxSteps) || (advance == 0 && !open) {
			tr.fail(fmt.Errorf("tcp: frame for step %d after step %d", low, uint32(step)))
			return
		}
		step += uint64(advance)
		count := binary.LittleEndian.Uint32(header[8:12])
		open = count&frameOpen != 0
		count &^= frameOpen
		descLen := binary.LittleEndian.Uint32(header[12:16])
		if uint64(descLen) != uint64(count)*descSize || descLen > length {
			tr.fail(fmt.Errorf("tcp: malformed batch header (%d edges, %d descriptor bytes, %d body)",
				count, descLen, length))
			return
		}
		// The scratch grows only as descriptor bytes arrive, so a header
		// that merely claims a huge section cannot make the demux
		// allocate what its sender never sends.
		desc = desc[:0]
		for len(desc) < int(descLen) {
			n := min(int(descLen)-len(desc), max(cap(desc)-len(desc), descChunk))
			desc = slices.Grow(desc, n)
			if _, err := io.ReadFull(br, desc[len(desc):len(desc)+n]); err != nil {
				tr.fail(fmt.Errorf("tcp: read batch descriptors: %w", err))
				return
			}
			desc = desc[:len(desc)+n]
		}
		if count > 0 && !in.Reserve(step) {
			return // torn down while the consumer was behind
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
			if !tr.deliver(br, in, d[4:], plen) {
				return
			}
		}
		if body != 0 {
			tr.fail(fmt.Errorf("tcp: batch body has %d trailing bytes", body))
			return
		}
		if !open {
			in.Publish(step)
		}
	}
}

// deliver routes one payload of plen bytes: it checks plen against the
// graph's payload bound, resolves the 8 bytes of route (graph, edge id)
// to the edge's next slot — the edge must be one of the connection's
// pair, in — and only then reads the body from br straight into the
// slot. It returns false when the demux loop must stop (an edge of
// another pair or process, oversized payload or read failure), having
// failed the mesh.
func (tr *MeshTransport) deliver(br *bufio.Reader, in *exec.Inlet, route []byte, plen int) bool {
	graph := int(int32(binary.LittleEndian.Uint32(route[0:4])))
	edge := int(int32(binary.LittleEndian.Uint32(route[4:8])))
	if graph < 0 || graph >= len(tr.plan.App.Graphs) {
		tr.fail(fmt.Errorf("tcp: frame for unknown edge g%d e%d", graph, edge))
		return false
	}
	// No payload of a graph is longer than its OutputBytes, so a frame
	// that claims more is malformed.
	if bound := tr.plan.App.Graphs[graph].OutputBytes; plen > bound {
		tr.fail(fmt.Errorf("tcp: payload of %d bytes on edge g%d e%d exceeds the graph's %d",
			plen, graph, edge, bound))
		return false
	}
	slot := in.Slot(graph, edge, plen)
	if slot == nil {
		tr.fail(fmt.Errorf("tcp: frame for unknown edge g%d e%d", graph, edge))
		return false
	}
	if _, err := io.ReadFull(br, slot); err != nil {
		tr.fail(fmt.Errorf("tcp: read payload: %w", err))
		return false
	}
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

func (tr *MeshTransport) teardown() {
	tr.downOnce.Do(func() {
		close(tr.done)
		tr.in.Close()
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

// Recycle is a no-op: a slot is released by its pair's
// acknowledgement. Kept for bench/layers.go until ROADMAP 1(d).
func (tr *MeshTransport) Recycle(graph int, payload []byte) {}

// pendBatch accumulates one rank pair's outbound payloads between
// flushes: packed edge descriptors, zero-copy references to the
// payload buffers, and the frame header and iovec of the next write.
// The references stay valid until the flush because payload rows are
// double-buffered — a buffer sent at timestep t is not rewritten until
// t+2, and the batch flushes at the t/t+1 boundary or sooner
// (flushBytes).
type pendBatch struct {
	desc     []byte
	payloads [][]byte
	bytes    int
	// cut records that a frameOpen frame left this step open, so the
	// boundary must close it even with nothing left to send.
	cut bool
	// header and iov are fields, not locals, because WriteTo takes its
	// receiver's address: a local net.Buffers, and a header array
	// sliced into it, would move to the heap on every write.
	header [frameHeaderSize]byte
	iov    net.Buffers
}

// SendEdge implements exec.Transport: it queues the payload for the
// edge consumer's rank, coalescing everything headed to the same peer
// this timestep into one batched frame written at the flush point. The
// descriptor names the edge as the engine does, by graph and dense id.
// Only the driver of the owning rank, one per rank over a wire
// transport, writes a given connection (or touches its pending
// batches), so no locking is needed.
func (tr *MeshTransport) SendEdge(fromRank, graph, edge int, payload []byte) error {
	consumer := tr.plan.Edges(graph)[edge].Consumer
	toRank := exec.OwnerOf(consumer, tr.plan.App.Graphs[graph].MaxWidth, tr.plan.Ranks)
	if tr.out[fromRank][toRank] == nil {
		return fmt.Errorf("tcp: no connection rank %d→%d (mesh torn down?)", fromRank, toRank)
	}
	p := &tr.pend[fromRank][toRank]
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(len(payload)))
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(graph))
	p.desc = binary.LittleEndian.AppendUint32(p.desc, uint32(edge))
	p.payloads = append(p.payloads, payload) // grows to the per-step batch high-water mark, then reuses
	p.bytes += len(payload)
	if p.bytes >= flushBytes {
		return tr.flushTo(fromRank, toRank, tr.in.Steps(fromRank)+1, true)
	}
	return nil
}

// Flush implements exec.Transport: it ends rank's step. It
// acknowledges the step on every pair rank consumes, then writes out
// every batch rank has pending, one writev per peer with queued
// payloads, each carrying the new step count. The engine calls it at
// each timestep boundary on the rank's own driver.
func (tr *MeshTransport) Flush(rank int) error {
	if rank < tr.plan.Local.Lo || rank >= tr.plan.Local.Hi {
		return nil
	}
	step := tr.in.Ack(rank)
	select {
	case <-tr.done:
		// Torn down mid-run (a release, or a peer's failure): the run is
		// void, and failing its flush makes the engine skip every
		// remaining kernel, so even a rank with no remote input to wake
		// stops computing within one step. The step is acknowledged
		// first: the rank's receives count steps by its acks.
		if err := tr.Err(); err != nil {
			return err
		}
		return fmt.Errorf("tcp: mesh torn down")
	default:
	}
	for to := 0; to < tr.plan.Ranks; to++ {
		if to == rank {
			continue
		}
		if err := tr.flushTo(rank, to, step, false); err != nil {
			return err
		}
	}
	return nil
}

// flushTo writes the pending batch for one rank pair as a single
// writev: batch header, descriptor section, then every payload,
// borrowed zero-copy from the senders. step is the sender's step count
// once the current step is flushed; open marks a frame cut mid-step.
// Called only from the driver of rank `from`.
func (tr *MeshTransport) flushTo(from, to int, step uint64, open bool) error {
	p := &tr.pend[from][to]
	if len(p.payloads) == 0 && !p.cut {
		return nil
	}
	p.cut = open
	count := uint32(len(p.payloads))
	if open {
		count |= frameOpen
	}
	binary.LittleEndian.PutUint32(p.header[0:4], uint32(len(p.desc)+p.bytes))
	binary.LittleEndian.PutUint32(p.header[4:8], uint32(step))
	binary.LittleEndian.PutUint32(p.header[8:12], count)
	binary.LittleEndian.PutUint32(p.header[12:16], uint32(len(p.desc)))
	p.iov = append(p.iov[:0], p.header[:], p.desc) // iovec grows to its high-water mark, then reuses
	p.iov = append(p.iov, p.payloads...)
	// WriteTo consumes the vector it is called on; keep the backing
	// array for the next flush.
	iov := p.iov
	_, err := p.iov.WriteTo(tr.out[from][to])
	p.iov = iov[:0]
	p.desc = p.desc[:0]
	p.payloads = p.payloads[:0]
	p.bytes = 0
	if err != nil {
		return fmt.Errorf("tcp: write batch rank %d→%d: %w", from, to, err)
	}
	return nil
}

// Inbound returns the fabric the demultiplexers deliver into, which
// the engine receives remote inputs from (exec.NewLocalRankEngine). Its
// RecvEdge blocks until the frame that closes the producer's previous
// step has arrived — or the mesh is torn down, in which case it returns
// a nil payload that fails validation at the consumer. Keeping the
// protocol flowing after a failure is what turns a killed peer process
// into a clean job error instead of a hang.
func (tr *MeshTransport) Inbound() *exec.Fabric { return tr.in }

// Send is SendEdge addressed by columns. Kept for bench/layers.go until
// ROADMAP 1(d).
func (tr *MeshTransport) Send(fromRank, graph, producer, consumer int, payload []byte) error {
	return tr.SendEdge(fromRank, graph, tr.plan.EdgeID(graph, producer, consumer), payload)
}

// Recv is Fabric.RecvEdge addressed by columns, for an edge this process
// consumes, with the fabric adapter's per-message semantics: it takes
// the pair's next published step and acknowledges it, so the consumer
// rank need not flush. Kept for bench/layers.go until ROADMAP 1(d).
func (tr *MeshTransport) Recv(graph, producer, consumer int) []byte {
	return tr.in.Recv(graph, producer, consumer)
}

// Err reports any asynchronous demultiplexer failure.
func (tr *MeshTransport) Err() error { return tr.errs.Err() }

// Close shuts down the mesh and returns once every goroutine it
// started has exited: the demultiplexers, on their closed connections
// or released slots, and the Cancel watcher, on the closed done.
// teardown, which a failing demultiplexer calls, does not wait.
func (tr *MeshTransport) Close() {
	tr.teardown()
	tr.wg.Wait()
}
