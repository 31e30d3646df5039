package locks

import (
	"repro/internal/core"
)

// ASLOn is LibASL, waiting in environment E: the paper's Algorithm 3
// over its reorderable lock (Algorithm 1) over one FIFO lock, FissileOn.
// A competitor on a big core queues on the base at once. One on a little
// core that finds the base held first stands by (Standby, in the
// StandbyServed flavour) for the reorder window its current epoch's
// feedback controller chose, or the default maximum window outside any
// epoch, and then queues; big competitors that arrive meanwhile overtake
// it, so reordering is bounded by the window. The base is not modified:
// Unlock and TryLock are its own (§3.3: "Since the reorderable lock is
// implemented atop of existing locks, both the trylock and the nested
// locking are supported"). ASLMutex is ASLOn the wall clock; the tests
// also run it on virtual time (simlock.Env). The zero value is an
// unlocked lock.
type ASLOn[E Env[E]] struct{ base FissileOn[E] }

// Lock acquires the lock on behalf of worker w (Algorithm 3).
func (m *ASLOn[E]) Lock(e E, w *core.Worker) {
	if w.Class() == core.Little && !m.base.IsFree() {
		Standby(e, &m.base, StandbyServed, w.ReorderWindow())
	}
	m.base.Lock(e)
}

// Unlock releases the base lock.
func (m *ASLOn[E]) Unlock() { m.base.Unlock() }

// TryLock takes the base lock iff it is free. Class plays no role in a
// try: there is no wait to reorder.
func (m *ASLOn[E]) TryLock() bool { return m.base.TryLock() }

// ASLMutex is ASLOn the wall clock: LibASL's lock for dedicated and
// over-subscribed cores alike, and the default shard lock. The paper
// redirects pthread_mutex_lock to asl_mutex_lock with weak-symbol
// replacement; Go has no symbol interposition, so the caller passes its
// core.Worker explicitly. The zero value is an unlocked lock.
type ASLMutex struct{ on ASLOn[wall] }

// Acquire acquires the lock on behalf of worker w.
func (m *ASLMutex) Acquire(w *core.Worker) { m.on.Lock(wall{}, w) }

// Release releases the lock; the release path ignores the worker.
func (m *ASLMutex) Release(*core.Worker) { m.on.Unlock() }

// TryAcquire acquires the lock iff it is free, without queueing or
// standing by.
func (m *ASLMutex) TryAcquire(*core.Worker) bool { return m.on.TryLock() }
