package exec

import (
	"sync"
	"sync/atomic"
)

// Buf is a reference-counted payload buffer. The shared-memory DAG
// backends (the Engine's policies) execute tasks from different
// timesteps concurrently, so a task's output must stay
// alive exactly until its last consumer has validated it — the same
// lifetime rule the paper's task-based runtimes implement. The producer
// takes the buffer with the count set to its number of readers and
// holds no reference itself; each reader releases once and the last
// one recycles the buffer through the pool. An output nobody reads
// goes back to the pool as soon as its producer has written it.
type Buf struct {
	Data []byte
	// refs is written with a plain store by Get, while the buffer is
	// private to its producer, and only decremented atomically after
	// that (see BufPool.Get).
	refs int32
	pool *BufPool
}

// Release drops one reference, recycling the buffer when it reaches
// zero. Safe to call concurrently from multiple consumers. Releasing
// more often than the buffer was referenced panics.
//
//taskbench:hotpath
func (b *Buf) Release() {
	switch n := atomic.AddInt32(&b.refs, -1); {
	case n == 0:
		b.pool.put(b)
	case n < 0:
		panic("exec: Buf released more times than it was referenced")
	}
}

// BufPool recycles fixed-size payload buffers.
type BufPool struct {
	size int
	pool sync.Pool
}

// NewBufPool creates a pool of buffers of the given size.
func NewBufPool(size int) *BufPool {
	p := &BufPool{size: size}
	p.pool.New = func() any {
		return &Buf{Data: make([]byte, size), pool: p}
	}
	return p
}

// Get returns a buffer with the reference count set to refs, one per
// reader. The count is a plain store: the buffer is private to the
// caller until the caller publishes it to its readers, and in the
// Engine that publication is the dependence-counter burn-down, a chain
// of atomic read-modify-writes that orders the store before any
// reader's Release. A buffer nobody will read (refs 0) goes back with
// put once the caller is done with it.
//
//taskbench:hotpath
func (p *BufPool) Get(refs int) *Buf {
	b := p.pool.Get().(*Buf)
	b.refs = int32(refs)
	return b
}

func (p *BufPool) put(b *Buf) {
	p.pool.Put(b)
}
