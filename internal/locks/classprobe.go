package locks

import (
	"sync/atomic"

	"repro/internal/core"
)

// ClassProbe wraps a WLock and counts acquisitions by the class the
// lock OBSERVES — w.Class() at Acquire/TryAcquire time. It exists for
// the serving layer's class-mapping contract: a front end that tags
// each request with an SLO class must be able to assert (in tests) and
// report (in stats) that an interactive request really reached the
// shard lock as big-class and a bulk request as little-class. Counters are atomic; the wrapper adds
// two uncontended atomic adds per acquisition and nothing else.
type ClassProbe struct {
	inner WLock
	// acquires counts successful lock entries by observed class,
	// indexed by core.Class (Big = 0, Little = 1). Failed TryAcquires
	// are counted separately: they observe a class but never enter.
	acquires  [2]atomic.Uint64
	tryFailed atomic.Uint64
}

// WithClassProbe wraps l with class-observation counters.
func WithClassProbe(l WLock) *ClassProbe { return &ClassProbe{inner: l} }

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

// Inner returns the wrapped lock.
func (p *ClassProbe) Inner() WLock { return p.inner }

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

// FactoryClassProbe wraps every lock f builds with a ClassProbe. The
// probes are reachable through the WLock values themselves (type-assert
// to *ClassProbe); callers that need them collected should capture
// them in their own NewLock closure instead.
func FactoryClassProbe(f Factory) Factory {
	return func() WLock { return WithClassProbe(f()) }
}
