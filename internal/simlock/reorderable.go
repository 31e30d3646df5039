package simlock

import (
	"repro/internal/amp"
	"repro/internal/locks"
)

// SimReorderable is the paper's reorderable lock (Algorithm 1) in the
// simulator: a bounded reorder capability over an unmodified underlying
// lock. Standby competitors run the served lock's standby loop,
// locks.Standby, on virtual time until their reorder window expires,
// then enqueue through the normal path. Competitors taking
// LockImmediately during the window overtake them.
//
// The underlying lock is MCS in the paper's default configuration and
// pthread_mutex (SimBarging) for the over-subscribed blocking variant
// of Bench-6 — exactly the substitution §4.1 describes.
type SimReorderable struct {
	Fifo FIFO
	// Sleeping selects the paper's blocking standby (locks.StandbySleep:
	// nanosleep between checks, which matters only under core
	// over-subscription) over its spinning one (locks.StandbySpin).
	Sleeping bool
}

// LockImmediately enqueues on the underlying lock right away
// (Algorithm 1, lock_immediately).
func (r *SimReorderable) LockImmediately(t *amp.Thread) { r.Fifo.Lock(t) }

// LockReorder acquires as a standby competitor with the given window
// (Algorithm 1, lock_reorder). Kernel context makes the free-check plus
// acquire pair atomic, which a real implementation achieves by simply
// calling lock_fifo on a free lock.
func (r *SimReorderable) LockReorder(t *amp.Thread, windowNs int64) {
	if !r.Fifo.IsFree() {
		f := locks.StandbySpin
		if r.Sleeping {
			f = locks.StandbySleep
		}
		locks.Standby(Env{t}, r.Fifo, f, windowNs)
	}
	r.Fifo.Lock(t)
}

// Unlock releases through the unmodified underlying unlock.
func (r *SimReorderable) Unlock(t *amp.Thread) { r.Fifo.Unlock(t) }

// IsFree reports whether the underlying lock is free.
func (r *SimReorderable) IsFree() bool { return r.Fifo.IsFree() }
