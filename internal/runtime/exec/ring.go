package exec

import (
	"sync/atomic"
	"unsafe"
)

// Ring is the single-producer/single-consumer queue of one cross-rank
// edge: capacity+1 payload slots, capacity messages in flight plus the
// one the consumer holds. The producer copies (or reads) a payload
// into the next free slot and publishes it with one atomic store; Recv
// returns the slot itself, and taking message h hands back the slot of
// message h-1, so nothing is released explicitly. That is sound
// because every rank policy finishes the task that consumed an edge's
// payload before it receives on that edge again (messages on an edge
// are one per timestep; see DESIGN.md §2b).
//
// A side that finds the ring empty or full parks on its own
// one-token wake channel: raise the waiting flag, re-check, block. The
// peer, after every store, looks at the flag and drops a token if it
// is raised. There are no spin-waits — the benchmark runs on one P.
//
// head and tail sit on separate 128-byte lines (the PlannedTask
// precedent: two cache lines, covering the adjacent-line prefetcher)
// so the two sides' stores do not false-share; the read-mostly fields
// ride on the producer's line, which the consumer loads for tail
// anyway. Rings in a slice therefore tile in whole lines.
type Ring struct {
	ringConsumer
	_ [(128 - unsafe.Sizeof(ringConsumer{})%128) % 128]byte
	ringProducer
	_ [(128 - unsafe.Sizeof(ringProducer{})%128) % 128]byte
}

// ringConsumer is the line the consumer writes.
type ringConsumer struct {
	// head counts the messages Recv has returned.
	head        atomic.Uint64
	consWaiting atomic.Uint32
}

// ringProducer is the line the producer writes, plus the fields
// nobody writes after init.
type ringProducer struct {
	// tail counts the messages published.
	tail        atomic.Uint64
	prodWaiting atomic.Uint32
	capacity    uint64
	// slots are allocated by the producer on first use and read by the
	// consumer only below tail, so the tail store orders them.
	slots    [][]byte
	consWake chan struct{}
	prodWake chan struct{}
	done     <-chan struct{}
}

func (r *Ring) init(capacity int, done <-chan struct{}) {
	r.capacity = uint64(capacity)
	r.slots = make([][]byte, capacity+1)
	r.consWake = make(chan struct{}, 1)
	r.prodWake = make(chan struct{}, 1)
	r.done = done
}

// Acquire returns the next free slot, sized to n bytes, for the
// producer to fill before Publish; it parks while capacity messages
// are in flight. It returns nil only when the ring's done channel
// closed while parked.
//
//taskbench:hotpath
func (r *Ring) Acquire(n int) []byte {
	t := r.tail.Load()
	if t-r.head.Load() >= r.capacity && !r.waitSpace(t) {
		return nil
	}
	k := t % uint64(len(r.slots))
	buf := r.slots[k]
	if len(buf) != n {
		if cap(buf) < n {
			buf = make([]byte, n) //taskbench:allocok slot growth: each slot is allocated on its first use, then reused
		}
		buf = buf[:n]
		r.slots[k] = buf
	}
	return buf
}

// Publish makes the slot returned by the last Acquire visible to Recv.
//
//taskbench:hotpath
func (r *Ring) Publish() {
	r.tail.Store(r.tail.Load() + 1)
	if r.consWaiting.Load() != 0 && r.consWaiting.Swap(0) != 0 {
		wake(r.consWake)
	}
}

// send copies payload into the next slot and publishes it.
//
//taskbench:hotpath
func (r *Ring) send(payload []byte) {
	if buf := r.Acquire(len(payload)); buf != nil {
		copy(buf, payload)
		r.Publish()
	}
}

// Recv blocks until the next message arrives and returns its slot,
// whose bytes stay intact until the next Recv on this ring. It
// returns nil only when the ring's done channel closed while parked.
//
//taskbench:hotpath
func (r *Ring) Recv() []byte {
	h := r.head.Load()
	if r.tail.Load() == h && !r.waitData(h) {
		return nil
	}
	buf := r.slots[h%uint64(len(r.slots))]
	// Taking message h releases the slot of message h-1: the producer
	// may now run capacity messages ahead of h+1.
	r.head.Store(h + 1)
	if r.prodWaiting.Load() != 0 && r.prodWaiting.Swap(0) != 0 {
		wake(r.prodWake)
	}
	return buf
}

// wake drops a token on a parked side's channel. A token already
// there wakes the sleeper just as well, so the send never blocks.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// waitData parks the consumer until message h is published. Flag
// store then tail re-check on this side, tail store then flag check on
// the producer's: sequentially consistent atomics guarantee at least
// one side sees the other, so a wake-up cannot be lost. A stale token
// only causes one extra trip round the loop. Kept out of line so Recv
// stays a short straight-line fast path.
//
//go:noinline
func (r *Ring) waitData(h uint64) bool {
	for r.tail.Load() == h {
		r.consWaiting.Store(1)
		if r.tail.Load() != h {
			break
		}
		select {
		case <-r.consWake:
		case <-r.done:
			return false
		}
	}
	r.consWaiting.Store(0)
	return true
}

// waitSpace parks the producer until fewer than capacity messages are
// in flight behind message t; the mirror image of waitData.
//
//go:noinline
func (r *Ring) waitSpace(t uint64) bool {
	for t-r.head.Load() >= r.capacity {
		r.prodWaiting.Store(1)
		if t-r.head.Load() < r.capacity {
			break
		}
		select {
		case <-r.prodWake:
		case <-r.done:
			return false
		}
	}
	r.prodWaiting.Store(0)
	return true
}
