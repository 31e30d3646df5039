package locks

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// propWaiter is one queued competitor of the proportional lock.
type propWaiter struct {
	granted atomic.Bool
	next    *propWaiter
	_       pad
}

// propQueue is a simple FIFO of waiters, guarded externally.
type propQueue struct {
	head, tail *propWaiter
}

func (q *propQueue) push(w *propWaiter) {
	w.next = nil
	if q.tail == nil {
		q.head, q.tail = w, w
		return
	}
	q.tail.next = w
	q.tail = w
}

func (q *propQueue) pop() *propWaiter {
	w := q.head
	if w == nil {
		return nil
	}
	q.head = w.next
	if q.head == nil {
		q.tail = nil
	}
	w.next = nil
	return w
}

func (q *propQueue) empty() bool { return q.head == nil }

// Proportional implements the paper's SHFL-PBn comparison point: a
// ShflLock-style reordering lock driven by a proportional-based static
// policy. Competitors are segregated into per-class queues (the paper
// splits asymmetric cores onto two ShflLock "nodes") and the release
// path admits exactly one little-core competitor after every N big-core
// handovers (§4, Evaluation Setup). It is one static trade-off between
// throughput and latency — the strawman LibASL's dynamic ordering is
// evaluated against (Fig. 5).
type Proportional struct {
	guard       TAS // short critical sections protecting the queue state
	locked      bool
	bigQ        propQueue
	littleQ     propQueue
	sinceLittle int
	pool        sync.Pool
	// N is the proportion: N big handovers per little handover. Zero
	// means DefaultProportion.
	N int
}

// DefaultProportion matches the paper's SHFL-PB10 configuration.
const DefaultProportion = 10

func (p *Proportional) proportion() int {
	if p.N <= 0 {
		return DefaultProportion
	}
	return p.N
}

func (p *Proportional) getWaiter() *propWaiter {
	if w, ok := p.pool.Get().(*propWaiter); ok {
		w.granted.Store(false)
		return w
	}
	return &propWaiter{}
}

// Lock acquires as a big-core competitor (the conservative default for
// plain Locker use).
func (p *Proportional) Lock() { p.LockClass(core.Big) }

// LockClass acquires the lock as a competitor of class c.
func (p *Proportional) LockClass(c core.Class) {
	p.guard.Lock()
	if !p.locked && p.bigQ.empty() && p.littleQ.empty() {
		p.locked = true
		p.guard.Unlock()
		return
	}
	w := p.getWaiter()
	if c == core.Big {
		p.bigQ.push(w)
	} else {
		p.littleQ.push(w)
	}
	p.guard.Unlock()
	var s Spinner
	for !w.granted.Load() {
		s.Spin()
	}
	p.pool.Put(w)
}

// TryLock acquires the lock iff it is free with no waiters.
func (p *Proportional) TryLock() bool {
	p.guard.Lock()
	ok := !p.locked && p.bigQ.empty() && p.littleQ.empty()
	if ok {
		p.locked = true
	}
	p.guard.Unlock()
	return ok
}

// IsFree reports whether the lock is free with no waiters.
func (p *Proportional) IsFree() bool {
	p.guard.Lock()
	free := !p.locked && p.bigQ.empty() && p.littleQ.empty()
	p.guard.Unlock()
	return free
}

// Unlock hands the lock over according to the proportional policy.
func (p *Proportional) Unlock() {
	p.guard.Lock()
	var w *propWaiter
	switch {
	case p.sinceLittle >= p.proportion() && !p.littleQ.empty():
		w = p.littleQ.pop()
		p.sinceLittle = 0
	case !p.bigQ.empty():
		w = p.bigQ.pop()
		p.sinceLittle++
	case !p.littleQ.empty():
		w = p.littleQ.pop()
		p.sinceLittle = 0
	default:
		p.locked = false
	}
	p.guard.Unlock()
	if w != nil {
		w.granted.Store(true)
	}
}
