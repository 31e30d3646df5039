// Package locktest is test support for code that takes locks.WLock
// locks; no production package imports it.
package locktest

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
)

// ClassProbe wraps a WLock and counts acquisitions by the class the
// lock OBSERVES — w.Class() at Acquire/TryAcquire time. It checks the
// serving layer's class-mapping contract: a front end that tags each
// request with an SLO class must reach the shard lock as big-class for
// an interactive request and as little-class for a bulk one. Counters
// are atomic, so the probe can wrap a lock shared by many workers.
type ClassProbe struct {
	inner locks.WLock
	// acquires counts successful lock entries by observed class,
	// indexed by core.Class (Big = 0, Little = 1). Failed TryAcquires
	// are counted separately: they observe a class but never enter.
	acquires  [2]atomic.Uint64
	tryFailed atomic.Uint64
}

// WithClassProbe wraps l with class-observation counters.
func WithClassProbe(l locks.WLock) *ClassProbe { return &ClassProbe{inner: l} }

// Acquire acquires the inner lock and records the observed class.
func (p *ClassProbe) Acquire(w *core.Worker) {
	p.inner.Acquire(w)
	p.acquires[w.Class()].Add(1)
}

// Release releases the inner lock.
func (p *ClassProbe) Release(w *core.Worker) { p.inner.Release(w) }

// TryAcquire tries the inner lock; wins are recorded under the
// observed class, losses under the failed-try counter.
func (p *ClassProbe) TryAcquire(w *core.Worker) bool {
	if p.inner.TryAcquire(w) {
		p.acquires[w.Class()].Add(1)
		return true
	}
	p.tryFailed.Add(1)
	return false
}

// ClassProbeStats is a snapshot of a ClassProbe's counters.
type ClassProbeStats struct {
	// BigAcquires and LittleAcquires count successful lock entries
	// whose worker's class was Big / Little.
	BigAcquires, LittleAcquires uint64
	// TryFailed counts TryAcquire calls that lost.
	TryFailed uint64
}

// Stats snapshots the counters.
func (p *ClassProbe) Stats() ClassProbeStats {
	return ClassProbeStats{
		BigAcquires:    p.acquires[core.Big].Load(),
		LittleAcquires: p.acquires[core.Little].Load(),
		TryFailed:      p.tryFailed.Load(),
	}
}
