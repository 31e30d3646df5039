// Package locksfix is the fixture stand-in for internal/locks: the
// WLock protocol plus a two-level Pair whose declared internal order
// (A before B) seeds the cross-package graph that consumerfix inverts.
package locksfix

// Worker stands in for core.Worker.
type Worker struct{ ID int }

// WLock stands in for the worker-aware lock interface.
type WLock struct{ state uint32 }

// Acquire blocks until the lock is held.
func (l *WLock) Acquire(w *Worker) { l.state = 1 }

// Release unlocks.
func (l *WLock) Release(w *Worker) { l.state = 0 }

// TryAcquire acquires iff the lock is immediately available.
func (l *WLock) TryAcquire(w *Worker) bool { return true }

// Pair is a two-level lock; the declared order is A then B.
type Pair struct {
	A, B WLock
}

// LockBoth takes both levels in the declared order and returns
// holding them (its summary's ReturnsHeld carries A and B to every
// importing package).
func (p *Pair) LockBoth(w *Worker) {
	p.A.Acquire(w)
	p.B.Acquire(w)
}

// UnlockBoth releases both levels.
func (p *Pair) UnlockBoth(w *Worker) {
	p.B.Release(w)
	p.A.Release(w)
}

// Counted stands in for a generic counting wrapper (a lock type that
// decorates another with counters): every lock method delegates to the wrapped inner lock, so the wrapper
// mints no lock class of its own — callers' held-sets carry
// locksfix.Counted.inner through the exported summaries, and violations
// through the wrapper are diagnosed against the inner field's class.
type Counted struct{ inner WLock }

// Acquire delegates to the inner lock: the caller holds the inner class.
func (c *Counted) Acquire(w *Worker) { c.inner.Acquire(w) }

// Release delegates to the inner lock.
func (c *Counted) Release(w *Worker) { c.inner.Release(w) }

// TryAcquire delegates; on success the caller holds the inner class
// (ReturnsHeld in the exported summary).
func (c *Counted) TryAcquire(w *Worker) bool { return c.inner.TryAcquire(w) }
