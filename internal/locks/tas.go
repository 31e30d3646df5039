package locks

import (
	"sync/atomic"

	"repro/internal/core"
)

// TAS is the plain test-and-set spinlock used as the unfair baseline
// throughout the paper's evaluation. It has no queue: whoever wins the
// atomic swap owns the lock, so acquisition order is arbitrary and, on
// asymmetric hardware, systematically biased toward one core class.
//
// Because this reproduction runs on symmetric hardware, the hardware
// bias does not arise by itself; SetAffinity injects it (see affinity).
// With no affinity configured, TAS behaves like a regular unfair
// spinlock.
type TAS struct {
	_     pad
	state atomic.Uint32
	_     pad
	aff   affinity
}

// affinity emulates the asymmetric atomic-operation success rate the
// paper observed on AMP hardware (§2.2, footnote 1). The disadvantaged
// class attempts the swap only once every Factor spin iterations, while
// the favoured class attempts on every iteration, giving the favoured
// class roughly Factor× the success rate under contention.
type affinity struct {
	enabled  bool
	favoured core.Class
	factor   uint
}

// SetAffinity configures the emulated atomic-success bias: favoured
// wins roughly factor times as often as the other class under
// contention. factor < 2 disables the bias.
func (t *TAS) SetAffinity(favoured core.Class, factor uint) {
	if factor < 2 {
		t.aff = affinity{}
		return
	}
	t.aff = affinity{enabled: true, favoured: favoured, factor: factor}
}

// Lock acquires the lock with no class bias.
func (t *TAS) Lock() { t.lockBiased(false) }

// LockClass acquires the lock as a competitor of class c, honouring any
// configured affinity bias. Harness code uses this entry point; plain
// library users call Lock.
func (t *TAS) LockClass(c core.Class) {
	t.lockBiased(t.aff.enabled && c != t.aff.favoured)
}

func (t *TAS) lockBiased(handicapped bool) {
	var s Spinner
	n := uint(0)
	for {
		n++
		if !handicapped || n%t.aff.factor == 0 {
			if t.state.CompareAndSwap(0, 1) {
				return
			}
		}
		s.Spin()
	}
}

// TryLock acquires the lock iff it is free.
func (t *TAS) TryLock() bool { return t.state.CompareAndSwap(0, 1) }

// IsFree reports whether the lock is currently free.
func (t *TAS) IsFree() bool { return t.state.Load() == 0 }

// Unlock releases the lock.
func (t *TAS) Unlock() { t.state.Store(0) }

// TTAS is the test-and-test-and-set variant: it spins on a read until
// the lock looks free, then attempts the swap, which keeps the
// contended line in shared state between handovers.
type TTAS struct {
	_     pad
	state atomic.Uint32
	_     pad
}

// Lock acquires the lock.
func (t *TTAS) Lock() {
	var s Spinner
	for {
		if t.state.Load() == 0 && t.state.CompareAndSwap(0, 1) {
			return
		}
		s.Spin()
	}
}

// TryLock acquires the lock iff it is free.
func (t *TTAS) TryLock() bool {
	return t.state.Load() == 0 && t.state.CompareAndSwap(0, 1)
}

// IsFree reports whether the lock is currently free.
func (t *TTAS) IsFree() bool { return t.state.Load() == 0 }

// Unlock releases the lock.
func (t *TTAS) Unlock() { t.state.Store(0) }
