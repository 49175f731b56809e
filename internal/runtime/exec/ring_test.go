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
)

// TestRingPadding pins the false-sharing layout: the consumer's and the
// producer's words sit 128 bytes apart and rings tile in whole lines.
func TestRingPadding(t *testing.T) {
	var r Ring
	if size := unsafe.Sizeof(r); size%128 != 0 {
		t.Errorf("Ring is %d bytes, want a multiple of 128", size)
	}
	if gap := unsafe.Offsetof(r.ringProducer) - unsafe.Offsetof(r.ringConsumer); gap < 128 {
		t.Errorf("head and tail are %d bytes apart, want >= 128", gap)
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

// TestRingStress drives one ring with a seeded producer and consumer
// that stall at random points, at 1, 2 and 4 Ps. It checks FIFO
// delivery without loss, that a received slot's bytes survive until
// the next Recv, that the producer never has more than capacity
// messages in flight, and — by finishing inside the deadline — that no
// wake-up is lost.
func TestRingStress(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var r Ring
			r.init(edgeCap, nil)

			// granted counts the slots Acquire has handed the producer.
			// While the consumer holds message h the ring's head is h+1,
			// so no grant beyond message h+capacity can have happened.
			var granted atomic.Uint64
			go func() {
				rng := rand.New(rand.NewSource(int64(7*procs + 1)))
				for seq := uint64(0); seq < ringStressMessages; seq++ {
					buf := r.Acquire(ringStressPayload)
					granted.Add(1)
					stampSlot(buf, seq)
					if rng.Intn(8) == 0 {
						runtime.Gosched() // stall mid-fill, like a slow socket read
					}
					r.Publish()
					if rng.Intn(8) == 0 {
						runtime.Gosched()
					}
				}
			}()

			verdict := make(chan error, 1)
			go func() {
				rng := rand.New(rand.NewSource(int64(7*procs + 2)))
				for seq := uint64(0); seq < ringStressMessages; seq++ {
					buf := r.Recv()
					if err := checkSlot(buf, seq); err != nil {
						verdict <- fmt.Errorf("on receipt: %w", err)
						return
					}
					if rng.Intn(8) == 0 {
						runtime.Gosched() // let the producer run ahead and wrap
					}
					if g := granted.Load(); g > seq+1+edgeCap {
						verdict <- fmt.Errorf("holding message %d, producer was granted %d slots: more than %d in flight", seq, g, edgeCap)
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
			case <-time.After(2 * time.Second):
				t.Fatalf("stuck at head %d tail %d after 2s: lost wake-up", r.head.Load(), r.tail.Load())
			}
			if h, tl := r.head.Load(), r.tail.Load(); h != ringStressMessages || tl != ringStressMessages {
				t.Errorf("ring ends at head %d tail %d, want both %d", h, tl, ringStressMessages)
			}
		})
	}
}

// awaitFlag waits for a side to raise its waiting flag, i.e. to be on
// its way into the park.
func awaitFlag(t *testing.T, flag *atomic.Uint32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); flag.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("side never parked")
		}
	}
}

// TestRingDoneReleasesParkedSides: closing done must release a Recv
// parked on an empty ring (nil payload) and a delivery parked on a
// full one (nil slot) — the mesh's teardown contract.
func TestRingDoneReleasesParkedSides(t *testing.T) {
	done := make(chan struct{})
	var empty, full Ring
	empty.init(edgeCap, done)
	full.init(edgeCap, done)
	for k := 0; k < edgeCap; k++ {
		full.send([]byte{byte(k)})
	}

	recvd := make(chan []byte, 1)
	slot := make(chan []byte, 1)
	go func() { recvd <- empty.Recv() }()
	go func() { slot <- full.Acquire(1) }()
	awaitFlag(t, &empty.consWaiting)
	awaitFlag(t, &full.prodWaiting)
	select {
	case <-recvd:
		t.Fatal("Recv on an empty ring returned before done closed")
	case <-slot:
		t.Fatal("Acquire on a full ring returned before done closed")
	default:
	}
	close(done)
	for name, ch := range map[string]chan []byte{"Recv": recvd, "Acquire": slot} {
		select {
		case got := <-ch:
			if got != nil {
				t.Errorf("parked %s returned %v after done closed, want nil", name, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked %s not released by done", name)
		}
	}
	// The messages already in the full ring are still deliverable.
	if got := full.Recv(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Recv after done = %v, want the queued [0]", got)
	}
}
