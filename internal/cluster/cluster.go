// Package cluster is the coordinator/worker subsystem for true
// multi-process distributed runs — the missing tier internal/wire
// promised when it described specs "shipped to remote workers".
//
// A Coordinator listens on a TCP control port. Worker processes dial
// in, register, and heartbeat; clients dial the same port and submit
// wire.AppSpec jobs. For each distinct job *shape* (the spec minus its
// kernel configurations) the coordinator provisions a configuration:
// it assigns every worker a contiguous block of the run's ranks
// (exec.BlockAssign) and has each build its slice of the rank plan
// (exec.BuildRankPlanLocal) and a data listener, in one fleet call. The
// configuration's first run carries one data address per member; from
// it each worker derives which process hosts every rank and wires its
// part of a tcp MeshTransport spanning all processes before it runs.
// Jobs with the same shape reuse the prepared configuration — plans,
// payload rows and the live connection mesh — and only swap kernel
// configurations, the cross-request analog of the reusable
// exec.RankSession (so a distributed METG sweep pays mesh
// establishment once, not per point).
//
// The coordinator is one event loop: a single goroutine owns the
// fleet, the configuration cache, the queue and every job, and the
// rest — a reader and a writer per connection, a ticker, the exported
// methods — talk to it by events, so it needs no lock. Each job is a
// state machine in the loop. Up to Options.Concurrency jobs are claimed
// from the queue at once, so jobs of different shapes overlap across
// the fleet while jobs sharing a shape take turns over their shared
// prepared configuration (the mesh and payload rows are single-run
// state). A full queue rejects new submissions immediately instead of
// blocking the submitter, and one client connection may have many jobs
// in flight (done replies are matched by job id).
//
// Failure semantics: workers heartbeat on the control connection; a
// missed-heartbeat timeout or a control-connection error declares a
// worker dead. Death aborts its in-flight jobs cleanly (never a hang:
// surviving workers' mesh transports abort, unblocking every pending
// receive), drops every configuration the worker participated in, and
// the affected jobs are automatically retried — re-provisioned over
// the reshaped fleet, with an attempt counter on the wire so a stale
// run's late result is discarded — up to Options.MaxAttempts. A client
// that disconnects (or sends cancel) has its in-flight jobs cancelled,
// releasing the workers they occupied.
//
// The protocol state machine per worker:
//
//	register → welcome → { heartbeat | prepare→prepared |
//	                       run→result | release }*
//
// and per client: submit → rejected | done, any order, matched by the
// id the client sent, with cancel available for jobs in flight.
package cluster

import (
	"bufio"
	"net"
	"sync"
	"time"

	"taskbench/internal/chaos"
	"taskbench/internal/wire"
)

// msgConn frames wire.Messages over one TCP connection, one binary
// frame (wire.WriteMessageBinary / wire.ReadMessageFrom) per message
// in both directions from the first byte. A write mutex serializes
// writers (heartbeats and replies interleave); a nonzero writeTimeout
// bounds each write: the coordinator arms it on accepted connections
// so a peer that stops draining its socket (a SIGSTOPped client, say)
// turns into a write error, and a hang-up, instead of a writer parked
// in write forever.
type msgConn struct {
	conn         net.Conn
	br           *bufio.Reader
	wmu          sync.Mutex
	writeTimeout time.Duration
	// chaos, when set (before the connection is shared), injects
	// scripted control-frame faults into this side's writes: delays,
	// drops (the write pretends to succeed) and duplicates. Heartbeats
	// are exempt from drop/dup — suppressing them is its own scripted
	// fault (mute-hb), not a side effect of frame loss, so scenarios
	// stay orthogonal.
	chaos *chaos.Injector
}

func newMsgConn(conn net.Conn) *msgConn {
	return &msgConn{conn: conn, br: bufio.NewReader(conn)}
}

func (c *msgConn) read() (wire.Message, error) {
	return wire.ReadMessageFrom(c.br)
}

func (c *msgConn) write(m wire.Message) error {
	writes := 1
	if c.chaos != nil {
		act := c.chaos.Frame(m.Type)
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if m.Type != wire.MsgHeartbeat {
			if act.Drop {
				return nil
			}
			if act.Dup {
				writes = 2
			}
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for ; writes > 0; writes-- {
		if c.writeTimeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		}
		if err := wire.WriteMessageBinary(c.conn, m); err != nil {
			return err
		}
	}
	return nil
}

func (c *msgConn) close() { c.conn.Close() }

// remoteAddr names the peer for log messages.
func (c *msgConn) remoteAddr() string { return c.conn.RemoteAddr().String() }
