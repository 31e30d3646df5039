package locks

import (
	"sync"
	"sync/atomic"
)

// mcsNode is one waiter's queue node. Nodes are pooled per lock; a node
// is recycled only after the release protocol guarantees no other
// thread can still write to it (either the tail CAS proved there is no
// successor, or the successor's link write has been observed).
type mcsNode struct {
	_      pad
	next   atomic.Pointer[mcsNode]
	locked atomic.Bool
	_      pad
}

// MCS is the Mellor-Crummey–Scott queue spinlock: strict FIFO handover
// with each waiter spinning on its own cache line. It is the paper's
// representative fair lock (Figs. 1, 4, 8, 9, 10) and the default FIFO
// layer under the reorderable lock.
//
// The classic algorithm threads a queue node through the API; to keep
// the ergonomic sync.Locker interface, the node is drawn from a pool in
// Lock and parked in the lock until the matching Unlock (mutual
// exclusion makes the single holder slot race-free).
type MCS struct {
	_      pad
	tail   atomic.Pointer[mcsNode]
	_      pad
	holder *mcsNode // owned by the current lock holder
	pool   sync.Pool
}

func (m *MCS) getNode() *mcsNode {
	if n, ok := m.pool.Get().(*mcsNode); ok {
		n.next.Store(nil)
		n.locked.Store(false)
		return n
	}
	return &mcsNode{}
}

// Lock enqueues the caller and waits for the FIFO handover.
func (m *MCS) Lock() {
	n := m.getNode()
	n.locked.Store(true)
	prev := m.tail.Swap(n)
	if prev != nil {
		prev.next.Store(n)
		var s Spinner
		for n.locked.Load() {
			s.Spin()
		}
	}
	m.holder = n
}

// TryLock acquires the lock iff the queue is empty.
func (m *MCS) TryLock() bool {
	n := m.getNode()
	if m.tail.CompareAndSwap(nil, n) {
		m.holder = n
		return true
	}
	m.pool.Put(n)
	return false
}

// IsFree reports whether the queue is empty (no holder, no waiters).
func (m *MCS) IsFree() bool { return m.tail.Load() == nil }

// Unlock hands the lock to the queue successor, if any.
func (m *MCS) Unlock() {
	n := m.holder
	m.holder = nil
	next := n.next.Load()
	if next == nil {
		// No visible successor: try to swing the tail back to nil. If
		// that succeeds nobody can ever write n.next, so n is safe to
		// recycle. If it fails a successor is mid-enqueue; wait for its
		// link write.
		if m.tail.CompareAndSwap(n, nil) {
			m.pool.Put(n)
			return
		}
		var s Spinner
		for {
			if next = n.next.Load(); next != nil {
				break
			}
			s.Spin()
		}
	}
	next.locked.Store(false)
	m.pool.Put(n)
}
