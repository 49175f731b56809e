// Package cluster is a skeletal stand-in for the real
// taskbench/internal/cluster exercising the documented lock hierarchy:
// configEntry.lock (10) < Coordinator.mu (30) < workerConn.mu /
// clientConn.mu (40). Locks may only be acquired in increasing rank.
package cluster

import "sync"

type configEntry struct {
	lock chan struct{}
}

type workerConn struct {
	mu sync.Mutex
}

type Coordinator struct {
	mu      sync.Mutex
	queue   []int
	workers []*workerConn
}

// badRunLockUnderMu acquires the per-shape run lock (rank 10, a channel
// send) while holding c.mu (rank 30).
func (c *Coordinator) badRunLockUnderMu(e *configEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.lock <- struct{}{} // want `acquiring configEntry\.lock \(per-shape run lock\) \(rank 10\) while holding cluster\.Coordinator\.mu \(rank 30\)`
}

// goodRunLock takes the run lock first, then the coordinator mutex.
func (c *Coordinator) goodRunLock(e *configEntry) {
	e.lock <- struct{}{}
	c.mu.Lock()
	c.queue = c.queue[:0]
	c.mu.Unlock()
	<-e.lock
}

// badDoubleLock re-enters its own mutex through a helper.
func (c *Coordinator) badDoubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.helperLocks() // want `calling helperLocks, which acquires cluster\.Coordinator\.mu \(rank 30\), while holding cluster\.Coordinator\.mu \(rank 30\)`
}

func (c *Coordinator) helperLocks() {
	c.mu.Lock()
	defer c.mu.Unlock()
}

// goodCallLeaf calls a helper that takes a leaf lock (rank 40) while
// holding c.mu (rank 30).
func (c *Coordinator) goodCallLeaf(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.touch()
}

func (w *workerConn) touch() {
	w.mu.Lock()
	w.mu.Unlock()
}

// badLeafOrder takes the coordinator lock while holding a leaf
// connection lock: rank 30 acquired under rank 40.
func (c *Coordinator) badLeafOrder(w *workerConn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c.mu.Lock() // want `acquiring cluster\.Coordinator\.mu \(rank 30\) while holding cluster\.workerConn\.mu \(rank 40\)`
	c.mu.Unlock()
}

// goodLeafOrder takes the coordinator lock, then the leaf lock.
func (c *Coordinator) goodLeafOrder(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.mu.Lock()
	w.mu.Unlock()
}

// goodBranches releases on the early-exit path; the steady path keeps
// the lock to the end. Neither branch misorders anything.
func (c *Coordinator) goodBranches(stop bool) {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return
	}
	c.queue = append(c.queue, 1)
	c.mu.Unlock()
}

// badAfterBranch releases the leaf lock only on the early-exit path,
// so the steady path still holds it when it takes c.mu.
func (c *Coordinator) badAfterBranch(w *workerConn, stop bool) {
	w.mu.Lock()
	if stop {
		w.mu.Unlock()
		return
	}
	c.mu.Lock() // want `acquiring cluster\.Coordinator\.mu \(rank 30\) while holding cluster\.workerConn\.mu \(rank 40\)`
	c.mu.Unlock()
	w.mu.Unlock()
}

// goodClosureUnderMu builds, under c.mu, a closure that takes c.mu when
// it later runs: a closure starts with nothing held.
func (c *Coordinator) goodClosureUnderMu() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.mu.Unlock()
	}
}

// badClosureBody misorders inside the closure itself.
func (c *Coordinator) badClosureBody(w *workerConn) func() {
	return func() {
		w.mu.Lock()
		c.mu.Lock() // want `acquiring cluster\.Coordinator\.mu \(rank 30\) while holding cluster\.workerConn\.mu \(rank 40\)`
		c.mu.Unlock()
		w.mu.Unlock()
	}
}

// goodTryAcquire models the select-based non-blocking try-acquire of a
// run lock: the send arm holds the lock inside the clause only.
func (c *Coordinator) goodTryAcquire(e *configEntry) bool {
	select {
	case e.lock <- struct{}{}:
		<-e.lock
		return true
	default:
		return false
	}
}

// badTryAcquireReentry sends on the run lock again inside the clause
// that won it: the clause runs with the lock held.
func (c *Coordinator) badTryAcquireReentry(e *configEntry) {
	select {
	case e.lock <- struct{}{}:
		e.lock <- struct{}{} // want `acquiring configEntry\.lock \(per-shape run lock\) while already holding it`
	default:
	}
}
