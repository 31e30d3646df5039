package locks

import "sync/atomic"

// Ticket is the classic FIFO ticket lock: arrivals take a ticket with a
// fetch-and-add and spin until the grant counter reaches it. Like MCS
// it preserves short-term acquisition fairness, which is exactly the
// property that collapses on AMP (paper Implication 1); it is one of
// the evaluated baselines (Figs. 8a, 8g, 9, 10).
type Ticket struct {
	_     pad
	next  atomic.Uint64
	_     pad
	owner atomic.Uint64
	_     pad
}

// Lock takes a ticket and waits for its turn.
func (t *Ticket) Lock() {
	me := t.next.Add(1) - 1
	var s Spinner
	for t.owner.Load() != me {
		s.Spin()
	}
}

// TryLock acquires the lock iff no one holds or awaits it.
func (t *Ticket) TryLock() bool {
	o := t.owner.Load()
	// The lock is free iff next == owner; taking ticket o via CAS both
	// checks freedom and acquires in one step.
	return t.next.CompareAndSwap(o, o+1)
}

// IsFree reports whether the lock is free with no waiters.
func (t *Ticket) IsFree() bool {
	o := t.owner.Load()
	return t.next.Load() == o
}

// Unlock grants the lock to the next ticket holder.
func (t *Ticket) Unlock() { t.owner.Add(1) }
