package locks

import (
	"sync"
	"sync/atomic"
)

// mcsParkNode extends the MCS node with parking state so waiters can
// block instead of burning CPU.
type mcsParkNode struct {
	_      pad
	next   atomic.Pointer[mcsParkNode]
	locked atomic.Bool
	parked atomic.Bool
	wake   chan struct{}
	_      pad
}

// MCSPark is the spin-then-park MCS variant evaluated as "MCS-STP" in
// Bench-6 (Fig. 8h): waiters spin briefly, then block; the FIFO
// handover must then pay the full wake-up latency on the critical path,
// which is why the paper finds it 96% worse than pthread_mutex under
// core over-subscription.
type MCSPark struct {
	_      pad
	tail   atomic.Pointer[mcsParkNode]
	_      pad
	holder *mcsParkNode
	pool   sync.Pool
}

// parkAfterSpins is how many spin iterations an MCSPark waiter burns
// before parking. Under Fissile it is how long the waiter behind the
// queue head stays runnable: long enough to catch a quick head
// turnover, short enough that deeper waiters leave their CPUs.
const parkAfterSpins = 128

func (m *MCSPark) getNode() *mcsParkNode {
	n, ok := m.pool.Get().(*mcsParkNode)
	if !ok {
		// The wake channel lives as long as the node: a releaser from a
		// previous life of a pooled node may still be sending into it
		// after the node was recycled, so the slot must never be
		// reassigned. Stale tokens are drained on reuse below; one that
		// arrives after the drain only causes a spurious wake, which the
		// park loop absorbs by re-checking locked.
		n = &mcsParkNode{wake: make(chan struct{}, 1)}
	}
	n.next.Store(nil)
	n.locked.Store(false)
	n.parked.Store(false)
	select {
	case <-n.wake:
	default:
	}
	return n
}

// Lock enqueues the caller, spins briefly, then parks until granted.
func (m *MCSPark) Lock() {
	n := m.getNode()
	n.locked.Store(true)
	prev := m.tail.Swap(n)
	if prev != nil {
		prev.next.Store(n)
		var s Spinner
		for i := 0; i < parkAfterSpins; i++ {
			if !n.locked.Load() {
				m.holder = n
				return
			}
			s.Spin()
		}
		// Park on the node's lifetime channel (created once in getNode
		// and drained on reuse, so it is never reassigned while a slow
		// releaser from an earlier life may still be sending into it).
		// Re-checking locked inside the loop makes spurious tokens —
		// a stale send that outran the drain — harmless.
		n.parked.Store(true)
		for n.locked.Load() {
			<-n.wake
		}
	}
	m.holder = n
}

// TryLock acquires the lock iff the queue is empty.
func (m *MCSPark) TryLock() bool {
	n := m.getNode()
	if m.tail.CompareAndSwap(nil, n) {
		m.holder = n
		return true
	}
	m.pool.Put(n)
	return false
}

// IsFree reports whether the queue is empty.
func (m *MCSPark) IsFree() bool { return m.tail.Load() == nil }

// Unlock hands the lock to the successor, waking it if parked.
func (m *MCSPark) Unlock() {
	n := m.holder
	m.holder = nil
	next := n.next.Load()
	if next == nil {
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
	if next.parked.Load() {
		// Non-blocking send into a one-slot buffer: if a token is
		// already pending the waiter has a wakeup coming anyway.
		select {
		case next.wake <- struct{}{}:
		default:
		}
	}
	m.pool.Put(n)
}
