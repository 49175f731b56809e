package exec

import (
	"sync"
	"sync/atomic"
)

// Buf is a reference-counted payload buffer. The shared-memory DAG
// backends (the Engine's policies) execute tasks from different
// timesteps concurrently, so a task's output must stay
// alive exactly until its last consumer has validated it — the same
// lifetime rule the paper's task-based runtimes implement. Producers
// set the reference count to the consumer count; each consumer
// releases once; the buffer then recycles through the pool.
type Buf struct {
	Data []byte
	refs atomic.Int32
	pool *BufPool
}

// Release drops one reference, recycling the buffer when it reaches
// zero. Safe to call concurrently from multiple consumers.
//
//taskbench:hotpath
func (b *Buf) Release() {
	if b.refs.Add(-1) == 0 {
		b.pool.put(b)
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

// Get returns a buffer with the reference count set to refs. A task
// with zero consumers may pass refs=1 and release after writing, so
// the buffer is still valid while the task writes its output.
//
//taskbench:hotpath
func (p *BufPool) Get(refs int) *Buf {
	b := p.pool.Get().(*Buf)
	b.refs.Store(int32(refs))
	return b
}

func (p *BufPool) put(b *Buf) {
	p.pool.Put(b)
}
