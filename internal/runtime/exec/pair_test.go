package exec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"taskbench/internal/core"
)

// TestPairPadding pins the false-sharing layout: the producer's and
// the consumer's counters sit 128 bytes apart, pairs tile in whole
// lines, and so do edges.
func TestPairPadding(t *testing.T) {
	var p pair
	if size := unsafe.Sizeof(p); size%128 != 0 {
		t.Errorf("pair is %d bytes, want a multiple of 128", size)
	}
	if gap := unsafe.Offsetof(p.pairConsumer) - unsafe.Offsetof(p.pairProducer); gap < 128 {
		t.Errorf("pub and ack are %d bytes apart, want >= 128", gap)
	}
	if size := unsafe.Sizeof(edgeSlots{}); size != 128 {
		t.Errorf("edgeSlots is %d bytes, want 128", size)
	}
}

// stampSlot writes seq over the whole payload, so a slot overwritten
// while the consumer still holds it shows as a torn stamp.
func stampSlot(buf []byte, seq uint64) {
	for k := 0; k+8 <= len(buf); k += 8 {
		binary.LittleEndian.PutUint64(buf[k:], seq)
	}
}

func checkSlot(buf []byte, seq uint64) error {
	if len(buf) != ringStressPayload {
		return fmt.Errorf("message %d: %d bytes, want %d", seq, len(buf), ringStressPayload)
	}
	for k := 0; k+8 <= len(buf); k += 8 {
		if got := binary.LittleEndian.Uint64(buf[k:]); got != seq {
			return fmt.Errorf("message %d: bytes [%d,%d) read %d", seq, k, k+8, got)
		}
	}
	return nil
}

const (
	ringStressMessages = 100_000
	ringStressPayload  = 48
)

// stressFabric is a 2-rank fabric whose only edges are 0→1 and 1→0.
func stressFabric() (*Fabric, int) {
	plan := BuildRankPlan(core.NewApp(core.MustNew(core.Params{
		Timesteps: 2, MaxWidth: 2, Dependence: core.Stencil1D, OutputBytes: ringStressPayload,
	})), 2)
	return NewFabric(plan), plan.EdgeID(0, 0, 1)
}

// TestRingStress drives one edge's slot ring through its pair's
// sequencer, as the engine does — the producer rank sends and flushes
// each step, the consumer rank flushes and receives — with both sides
// stalling at seeded random points, at 1, 2 and 4 Ps. It checks FIFO
// delivery without loss, that a received slot's bytes survive until the
// consumer's next flush, that the producer never runs more than EdgeCap
// steps past the consumer's acknowledgement, and — by finishing inside
// the deadline — that no wake-up is lost.
func TestRingStress(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f, edge := stressFabric()
			payload := make([]byte, ringStressPayload)

			// granted counts the steps the producer has started filling.
			// While the consumer holds message h it has acknowledged h+1
			// steps, so no step beyond h+EdgeCap can have started.
			var granted atomic.Uint64
			go func() {
				rng := rand.New(rand.NewSource(int64(7*procs + 1)))
				for seq := uint64(0); seq < ringStressMessages; seq++ {
					granted.Add(1)
					stampSlot(payload, seq)
					f.SendEdge(0, 0, edge, payload)
					if rng.Intn(8) == 0 {
						runtime.Gosched() // stall mid-step, like a slow task
					}
					f.Flush(0)
				}
			}()

			verdict := make(chan error, 1)
			go func() {
				rng := rand.New(rand.NewSource(int64(7*procs + 2)))
				for seq := uint64(0); seq < ringStressMessages; seq++ {
					f.Flush(1)
					buf := f.RecvEdge(0, edge)
					if err := checkSlot(buf, seq); err != nil {
						verdict <- fmt.Errorf("on receipt: %w", err)
						return
					}
					if rng.Intn(8) == 0 {
						runtime.Gosched() // let the producer run ahead and wrap
					}
					if g := granted.Load(); g > seq+1+EdgeCap {
						verdict <- fmt.Errorf("holding message %d, producer started %d steps: more than %d in flight", seq, g, EdgeCap)
						return
					}
					if err := checkSlot(buf, seq); err != nil {
						verdict <- fmt.Errorf("while held: %w", err)
						return
					}
				}
				verdict <- nil
			}()

			select {
			case err := <-verdict:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("stuck after 10s: lost wake-up\n%v", f)
			}
			p := &f.pairs[f.graphs[0].edges[edge].pair]
			if pub, ack := p.pub.Load(), p.ack.Load(); pub != ringStressMessages || ack != ringStressMessages {
				t.Errorf("pair ends at published %d acknowledged %d, want both %d", pub, ack, ringStressMessages)
			}
		})
	}
}

// awaitParked waits for a thread to block on g.
func awaitParked(t *testing.T, g *gate) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.parkedNow() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("side never parked")
		}
	}
}

// TestRingDoneReleasesParkedSides: closing the fabric must release a
// receive parked on an unpublished step (nil payload) and a delivery
// parked on an unacknowledged one (false) — the mesh's teardown
// contract — while a step published before stays receivable.
func TestRingDoneReleasesParkedSides(t *testing.T) {
	f, e01 := stressFabric()
	e10 := f.graphs[0].index.id(1, 0)
	// Rank 1's demux stand-in publishes one payload to rank 0, which
	// ends its step 0.
	in := f.Inlet(1, 0)
	if !in.Reserve(1) {
		t.Fatal("first step not reservable")
	}
	in.Slot(0, e10, 1)[0] = 7
	in.Publish(1)
	f.Ack(0)

	recvd := make(chan []byte, 1)
	reserved := make(chan bool, 1)
	f.Ack(1)
	go func() { recvd <- f.RecvEdge(0, e01) }()         // rank 0 never publishes
	go func() { reserved <- in.Reserve(EdgeCap + 2) }() // rank 0 acknowledged 1 step, not 2
	p01, p10 := &f.pairs[f.graphs[0].edges[e01].pair], &f.pairs[f.graphs[0].edges[e10].pair]
	awaitParked(t, &p01.pubWait)
	awaitParked(t, &p10.ackWait)
	select {
	case <-recvd:
		t.Fatal("RecvEdge on an unpublished step returned before Close")
	case <-reserved:
		t.Fatal("Reserve on an unacknowledged step returned before Close")
	default:
	}
	f.Close()
	select {
	case got := <-recvd:
		if got != nil {
			t.Errorf("parked RecvEdge returned %v after Close, want nil", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked RecvEdge not released by Close")
	}
	select {
	case ok := <-reserved:
		if ok {
			t.Error("parked Reserve returned true after Close, want false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Reserve not released by Close")
	}
	if got := f.RecvEdge(0, e10); len(got) != 1 || got[0] != 7 {
		t.Errorf("RecvEdge after Close = %v, want the published [7]", got)
	}
}

// TestFabricProbeRoundTrips runs exactly what bench/layers.go's
// exec.fabric_roundtrip probe runs — column Send and Recycle(Recv) on
// one goroutine, with no Flush — far enough to wrap the edge's slots
// and pass the steps-ahead bound many times over, and then holds the
// warm round trip to zero allocations, as the probe's per-message
// figure assumes.
func TestFabricProbeRoundTrips(t *testing.T) {
	f := NewFabricFromEdges([][]Edge{{{0, 1}}})
	payload := make([]byte, 16)
	roundTrip := func(k int) error {
		payload[0] = byte(k)
		f.Send(0, 0, 1, payload)
		got := f.Recv(0, 0, 1)
		if len(got) != len(payload) || got[0] != byte(k) {
			return fmt.Errorf("round trip %d received %v", k, got)
		}
		f.Recycle(0, got)
		return nil
	}
	verdict := make(chan error, 1)
	go func() {
		for k := 0; k < 2048; k++ {
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
		t.Fatalf("probe wedged\n%v", f)
	}
}
