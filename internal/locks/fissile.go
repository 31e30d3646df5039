package locks

import (
	"sync/atomic"
	"time"
)

// patience is how long the queue head waits before it shuts the fast
// path: below the 100 µs interactive SLO.
const patience = 50 * time.Microsecond

// Fissile is a test-and-set word in front of an MCSPark queue (Dice &
// Kogan's Fissile Locks). Lock is one CAS on the word; only a caller
// whose CAS fails queues. The queue head (the "alpha") spins on the word
// while everyone behind it parks: the holder, the alpha and new arrivals
// are the active set, the parked queue the passive one (Dice & Kogan's
// concurrency restriction). An alpha that has waited past patience sets
// impatient, which shuts the fast path until it holds the word, so
// bypass is bounded. Unlock frees the word for whoever runs next rather
// than handing it to a waiter the scheduler may not be running, which is
// what makes MCS collapse when goroutines outnumber CPUs. The zero value
// is an unlocked lock.
type Fissile struct {
	_         pad
	word      atomic.Uint32
	impatient atomic.Bool // written only by the alpha
	_         pad
	queue     MCSPark
}

// Lock takes the word, or queues for it.
func (f *Fissile) Lock() {
	if !f.impatient.Load() && f.word.CompareAndSwap(0, 1) {
		return
	}
	f.queue.Lock()
	var s Spinner
	for start := time.Now(); f.word.Load() != 0 || !f.word.CompareAndSwap(0, 1); s.Spin() {
		if !f.impatient.Load() && time.Since(start) > patience {
			f.impatient.Store(true)
		}
	}
	f.impatient.Store(false)
	f.queue.Unlock()
}

// TryLock takes the word iff it is free and nobody is queued for it.
func (f *Fissile) TryLock() bool { return f.queue.IsFree() && f.word.CompareAndSwap(0, 1) }

// IsFree reports whether the word is free and nobody is queued, so a
// standby competitor never takes the lock over a queued waiter.
func (f *Fissile) IsFree() bool { return f.word.Load() == 0 && f.queue.IsFree() }

// Unlock frees the word.
func (f *Fissile) Unlock() { f.word.Store(0) }
