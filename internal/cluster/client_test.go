package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"taskbench/internal/wire"
)

// dialRaw opens a bare control connection to addr, bounded by a
// deadline so a missing reply fails the test instead of hanging it.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	return conn, bufio.NewReader(conn)
}

// writeRaw sends msgs as one write, so the coordinator may read them
// back to back before it answers any.
func writeRaw(t *testing.T, conn net.Conn, msgs ...wire.Message) {
	t.Helper()
	var b []byte
	for _, m := range msgs {
		var err error
		if b, err = wire.AppendMessageBinary(b, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDuplicateJobIDEndsConnection: a submit that reuses an id
// still in flight on its connection is a protocol violation. The
// coordinator closes the connection without answering it, which
// cancels the first job, and keeps serving other clients.
func TestClusterDuplicateJobIDEndsConnection(t *testing.T) {
	coord, _ := testFleet(t, 2)
	conn, br := dialRaw(t, coord.Addr())
	long := busySpec(2, 2, 5000, time.Millisecond)
	quick := stencilSpec(2, 16)
	writeRaw(t, conn,
		wire.Message{Type: wire.MsgSubmit, Job: 1, Spec: &long},
		wire.Message{Type: wire.MsgSubmit, Job: 1, Spec: &quick})
	if reply, err := io.ReadAll(br); len(reply) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got reply %q, err %v; want the connection closed unanswered", reply, err)
	}
	waitStats(t, coord, "first job cancelled", 10*time.Second, func(s Stats) bool { return s.JobsCancelled == 1 })

	cli, err := Dial(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if res, err := cli.Submit(quick); err != nil || res.Err != nil {
		t.Fatalf("new client after the duplicate: %v / %v", err, res.Err)
	}
	if st := coord.Stats(); st.JobsRun != 1 || st.JobsRejected != 0 {
		t.Errorf("jobs run/rejected = %d/%d, want 1/0 (the duplicate must never run)", st.JobsRun, st.JobsRejected)
	}
}

// TestClusterCancelBehindSubmit writes a submit and its cancel before
// reading anything: the connection is ordered, so the coordinator sees
// the job before the cancel, and the job gets exactly one done, under
// its id, carrying the cancellation.
func TestClusterCancelBehindSubmit(t *testing.T) {
	coord, _ := testFleet(t, 2)
	conn, br := dialRaw(t, coord.Addr())
	long := busySpec(2, 2, 5000, time.Millisecond)
	writeRaw(t, conn,
		wire.Message{Type: wire.MsgSubmit, Job: 7, Spec: &long},
		wire.Message{Type: wire.MsgCancel, Job: 7})
	m, err := wire.ReadMessageFrom(br)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgDone || m.Job != 7 || !strings.Contains(m.Err, "cancelled") {
		t.Fatalf("got %+v, want a cancelled done for job 7", m)
	}
	// A stats round trip fences the connection: no second verdict may
	// arrive ahead of its reply.
	writeRaw(t, conn, wire.Message{Type: wire.MsgStats, Job: 8})
	if m, err = wire.ReadMessageFrom(br); err != nil {
		t.Fatal(err)
	}
	if m.Type != wire.MsgStatsRply || m.Job != 8 {
		t.Fatalf("got %+v after the done, want statsreply 8", m)
	}
	if m.Stats.JobsCancelled != 1 || m.Stats.JobsRun != 0 {
		t.Errorf("jobs cancelled/run = %d/%d, want 1/0", m.Stats.JobsCancelled, m.Stats.JobsRun)
	}
}

// TestClientRejectsVerdictForUnknownID: a verdict naming an id the
// client never sent fails the client with a protocol error instead of
// resolving some other submission or leaving Wait parked.
func TestClientRejectsVerdictForUnknownID(t *testing.T) {
	for _, typ := range []string{wire.MsgRejected, wire.MsgDone} {
		t.Run(typ, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				peer, err := ln.Accept()
				if err != nil {
					return
				}
				defer peer.Close()
				br := bufio.NewReader(peer)
				m, err := wire.ReadMessageFrom(br)
				if err != nil {
					return
				}
				wire.WriteMessageBinary(peer, wire.Message{Type: typ, Job: m.Job + 100, Err: "stray"})
				io.Copy(io.Discard, br) // hold the connection open
			}()
			cli, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			p, err := cli.SubmitAsync(stencilSpec(2, 16))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := p.WaitContext(ctx)
			if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "unknown job") {
				t.Fatalf("Wait = %+v, %v; want a protocol error naming the unknown job", res, err)
			}
		})
	}
}
