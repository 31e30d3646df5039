package locks

import (
	"sync/atomic"
	"time"
)

// patience is how long the queue head waits before it shuts the fast
// path: below the 100 µs interactive SLO.
const patience = 50 * time.Microsecond

// FissileOn is a test-and-set word in front of an MCSParkOn queue (Dice
// & Kogan's Fissile Locks), waiting in environment E. Lock is one CAS on
// the word; only a caller whose CAS fails queues. The queue head (the
// "alpha") spins on the word while everyone behind it parks: the
// holder, the alpha and new arrivals are the active set, the parked
// queue the passive one (Dice & Kogan's concurrency restriction). An
// alpha that has waited past patience sets impatient, which shuts the
// fast path until it holds the word, so bypass is bounded. Unlock frees
// the word for whoever runs next rather than handing it to a waiter the
// scheduler may not be running, which is what makes MCS collapse when
// goroutines outnumber CPUs. It is ASLOn's base lock. The zero value is
// an unlocked lock.
type FissileOn[E Env[E]] struct {
	_         pad
	word      atomic.Uint32
	impatient atomic.Bool // written only by the alpha
	_         pad
	queue     MCSParkOn[E]
}

// Lock takes the word, or queues for it.
func (f *FissileOn[E]) Lock(e E) {
	if !f.impatient.Load() && f.word.CompareAndSwap(0, 1) {
		return
	}
	f.lockSlow(e)
}

func (f *FissileOn[E]) lockSlow(e E) {
	f.queue.Lock(e)
	start := e.Now()
	for step := 1; f.word.Load() != 0 || !f.word.CompareAndSwap(0, 1); step++ {
		if !f.impatient.Load() && e.Now()-start > int64(patience) {
			f.impatient.Store(true)
		}
		e.Spin(step)
	}
	f.impatient.Store(false)
	f.queue.Unlock(e)
}

// TryLock takes the word iff it is free and nobody is queued for it.
func (f *FissileOn[E]) TryLock() bool { return f.queue.IsFree() && f.word.CompareAndSwap(0, 1) }

// IsFree reports whether the word is free and nobody is queued, so a
// standby competitor never takes the lock over a queued waiter.
func (f *FissileOn[E]) IsFree() bool { return f.word.Load() == 0 && f.queue.IsFree() }

// Unlock frees the word.
func (f *FissileOn[E]) Unlock() { f.word.Store(0) }
