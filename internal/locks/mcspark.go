package locks

import (
	"sync"
	"sync/atomic"
)

// mcsParkNode extends the MCS node with parking state so waiters can
// block instead of burning CPU.
type mcsParkNode[E Env[E]] struct {
	_      pad
	next   atomic.Pointer[mcsParkNode[E]]
	locked atomic.Bool
	parked atomic.Bool
	waiter E // the handle a parked waiter is woken by (Env.Attach)
	_      pad
}

// MCSParkOn is the spin-then-park MCS variant evaluated as "MCS-STP" in
// Bench-6 (Fig. 8h), waiting in environment E: waiters spin briefly,
// then block; the FIFO handover must then pay the full wake-up latency
// on the critical path, which is why the paper finds it 96% worse than
// pthread_mutex under core over-subscription. FissileOn queues on it;
// the tests also run it alone, on both clocks. The zero value is an
// unlocked lock.
type MCSParkOn[E Env[E]] struct {
	_      pad
	tail   atomic.Pointer[mcsParkNode[E]]
	_      pad
	holder *mcsParkNode[E]
	pool   sync.Pool
}

// parkAfterSpins is how many spin steps an MCSParkOn waiter takes before
// parking. Under FissileOn it is how long the waiter behind the queue head
// stays runnable: long enough to catch a quick head turnover, short
// enough that deeper waiters leave their CPUs.
const parkAfterSpins = 128

func (m *MCSParkOn[E]) getNode() *mcsParkNode[E] {
	n, ok := m.pool.Get().(*mcsParkNode[E])
	if !ok {
		return new(mcsParkNode[E])
	}
	n.next.Store(nil)
	n.parked.Store(false)
	return n
}

// Lock enqueues the caller, spins briefly, then parks until granted.
func (m *MCSParkOn[E]) Lock(e E) {
	n := m.getNode()
	n.locked.Store(true)
	if prev := m.tail.Swap(n); prev != nil {
		prev.next.Store(n)
		m.wait(e, n)
	}
	m.holder = n
}

// wait spins on n, then parks on it until Unlock grants it. Re-checking
// locked around each Park makes a spurious wake harmless.
func (m *MCSParkOn[E]) wait(e E, n *mcsParkNode[E]) {
	for step := 1; step <= parkAfterSpins; step++ {
		if !n.locked.Load() {
			return
		}
		e.Spin(step)
	}
	e.Attach(&n.waiter)
	n.parked.Store(true)
	for n.locked.Load() {
		n.waiter.Park()
	}
}

// TryLock acquires the lock iff the queue is empty.
func (m *MCSParkOn[E]) TryLock() bool {
	n := m.getNode()
	if m.tail.CompareAndSwap(nil, n) {
		m.holder = n
		return true
	}
	m.pool.Put(n)
	return false
}

// IsFree reports whether the queue is empty.
func (m *MCSParkOn[E]) IsFree() bool { return m.tail.Load() == nil }

// Unlock hands the lock to the successor, waking it if parked.
func (m *MCSParkOn[E]) Unlock(e E) {
	n := m.holder
	m.holder = nil
	next := n.next.Load()
	if next == nil {
		if m.tail.CompareAndSwap(n, nil) {
			m.pool.Put(n)
			return
		}
		for step := 1; ; step++ {
			if next = n.next.Load(); next != nil {
				break
			}
			e.Spin(step)
		}
	}
	next.locked.Store(false)
	if next.parked.Load() {
		next.waiter.Unpark()
	}
	m.pool.Put(n)
}
