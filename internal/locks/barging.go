package locks

import (
	"sync"
	"sync/atomic"
)

// BargingMutex is a futex-style blocking mutex with barging, standing
// in for glibc's pthread_mutex_lock in the evaluation.
// It reproduces the two properties the paper's analysis relies on:
//
//   - no FIFO order: a newly arriving thread can seize a just-released
//     lock ahead of sleeping waiters, so acquisition latency is
//     unstable and unfair;
//   - wake-up latency stays off the critical path under contention,
//     because the lock is handed to whoever is running, which is why
//     pthread_mutex beats spin-then-park FIFO locks when cores are
//     over-subscribed (Fig. 8h).
//
// The algorithm is the classic three-state futex mutex (0 free,
// 1 locked, 2 locked with possible sleepers), with a one-slot token
// channel playing the role of futex wake.
type BargingMutex struct {
	_     pad
	state atomic.Int32
	_     pad
	sema  chan struct{}
	once  sync.Once
}

func (m *BargingMutex) init() {
	m.once.Do(func() { m.sema = make(chan struct{}, 1) })
}

// Lock acquires the mutex, sleeping if contended. New arrivals barge
// ahead of sleepers, matching pthread semantics.
func (m *BargingMutex) Lock() {
	if m.state.CompareAndSwap(0, 1) {
		return
	}
	m.init()
	// Brief adaptive spin before sleeping, as glibc's adaptive mutex
	// and the Go runtime both do.
	var s Spinner
	for i := 0; i < 32; i++ {
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, 1) {
			return
		}
		s.Spin()
	}
	for {
		// Mark contended; if the lock was free we now own it (in the
		// contended state, which only means Unlock will wake someone
		// unnecessarily — harmless).
		if m.state.Swap(2) == 0 {
			return
		}
		<-m.sema
	}
}

// TryLock acquires the mutex iff it is free.
func (m *BargingMutex) TryLock() bool { return m.state.CompareAndSwap(0, 1) }

// IsFree reports whether the mutex is currently free.
func (m *BargingMutex) IsFree() bool { return m.state.Load() == 0 }

// Unlock releases the mutex and wakes one sleeper if any may exist.
func (m *BargingMutex) Unlock() {
	if m.state.Swap(0) == 2 {
		m.init()
		select {
		case m.sema <- struct{}{}:
		default:
			// A wake token is already pending; one sleeper will run.
		}
	}
}
