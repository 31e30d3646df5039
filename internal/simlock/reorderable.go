package simlock

import (
	"repro/internal/amp"
	"repro/internal/core"
)

// SimReorderable is the paper's reorderable lock (Algorithm 1) in the
// simulator: a bounded reorder capability over an unmodified underlying
// lock. Standby competitors poll the lock's free state at binary-
// exponentially spaced instants until their reorder window expires,
// then enqueue through the normal path. Competitors taking
// LockImmediately during the window overtake them.
//
// The underlying lock is MCS in the paper's default configuration and
// pthread_mutex (SimBarging) for the over-subscribed blocking variant
// of Bench-6 — exactly the substitution §4.1 describes.
type SimReorderable struct {
	Fifo FIFO
	// MaxWindow caps every reorder window (starvation freedom);
	// zero means core.DefaultMaxWindow.
	MaxWindow int64
	// Sleeping selects the blocking flavour: the standby competitor
	// releases its CPU between checks (nanosleep), which matters only
	// under core over-subscription.
	Sleeping bool
}

func (r *SimReorderable) maxWindow() int64 {
	if r.MaxWindow <= 0 {
		return core.DefaultMaxWindow
	}
	return r.MaxWindow
}

// checkBase is the first polling interval of the standby back-off.
func (r *SimReorderable) checkBase() int64 {
	if r.Sleeping {
		// The blocking standby waits with nanosleep, whose practical
		// granularity (timer slack + wakeup) is tens of microseconds.
		// Polling coarsely also keeps standby competitors from beating
		// woken immediate-path competitors to every free window.
		return 50_000
	}
	return 50 // one spin-loop pass of Algorithm 1
}

// LockImmediately enqueues on the underlying lock right away
// (Algorithm 1, lock_immediately).
func (r *SimReorderable) LockImmediately(t *amp.Thread) { r.Fifo.Lock(t) }

// LockReorder acquires as a standby competitor with the given window
// (Algorithm 1, lock_reorder). Kernel context makes the free-check plus
// acquire pair atomic, which a real implementation achieves by simply
// calling lock_fifo on a free lock.
func (r *SimReorderable) LockReorder(t *amp.Thread, windowNs int64) {
	if maxW := r.maxWindow(); windowNs > maxW {
		windowNs = maxW
	}
	if r.Fifo.IsFree() {
		r.Fifo.Lock(t)
		return
	}
	if windowNs > 0 {
		end := t.Now() + windowNs
		interval := r.checkBase()
		for {
			now := t.Now()
			if now >= end {
				break
			}
			d := interval
			if rem := end - now; d > rem {
				d = rem
			}
			t.SleepFor(d)
			if r.Fifo.IsFree() {
				break
			}
			interval <<= 1 // binary exponential back-off of the checks
		}
	}
	r.Fifo.Lock(t)
}

// Unlock releases through the unmodified underlying unlock.
func (r *SimReorderable) Unlock(t *amp.Thread) { r.Fifo.Unlock(t) }

// IsFree reports whether the underlying lock is free.
func (r *SimReorderable) IsFree() bool { return r.Fifo.IsFree() }
