package locks

import (
	"repro/internal/core"
)

// ASLMutex is LibASL's lock front end (paper Algorithm 3,
// asl_mutex_lock): competitors on big cores take the immediate FIFO
// path; competitors on little cores become standby competitors with the
// reorder window chosen by their current epoch's feedback controller
// (or the default maximum window outside any epoch, which guarantees
// eventual acquisition).
//
// The paper redirects pthread_mutex_lock to this function with
// weak-symbol replacement; Go has no symbol interposition, so the
// application passes its core.Worker explicitly.
type ASLMutex struct {
	r *Reorderable
}

// NewASLMutex builds LibASL over the given FIFO lock.
func NewASLMutex(fifo FIFOLock) *ASLMutex {
	return &ASLMutex{r: NewReorderable(fifo)}
}

// NewASLMutexDefault builds the one ASL stack: the reorderable lock over
// Fissile.
func NewASLMutexDefault() *ASLMutex {
	return NewASLMutex(new(Fissile))
}

// Lock acquires the lock on behalf of worker w (Algorithm 3).
func (m *ASLMutex) Lock(w *core.Worker) {
	if w.Class() == core.Big {
		m.r.LockImmediately()
		return
	}
	m.r.LockReorder(w.ReorderWindow())
}

// Unlock releases the lock. The worker is accepted for symmetry but the
// release path is the unmodified FIFO unlock.
func (m *ASLMutex) Unlock(w *core.Worker) { m.r.Unlock() }

// TryLock acquires the lock iff it is free, without queueing or
// standing by.
func (m *ASLMutex) TryLock(w *core.Worker) bool { return m.r.TryLock() }
