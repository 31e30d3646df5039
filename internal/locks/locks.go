// Package locks implements the real (non-simulated) locks a shard of
// the store can run, all usable from ordinary Go code:
//
//   - ASLMutex, the paper's Algorithm 3 binding Reorderable to the
//     epoch/SLO feedback in internal/core, and the default shard lock
//   - Reorderable, the paper's Algorithm 1 on top of any FIFO lock
//   - Fissile, a test-and-set word in front of the spin-then-park MCS
//     queue (Dice & Kogan's Fissile Locks), the base ASLMutex runs on
//   - MCS queue lock (spin) and MCS spin-then-park
//   - BargingMutex, a futex-style unfair blocking mutex standing in for
//     pthread_mutex_lock
//
// ASLMutex, sync.Mutex, MCS and BargingMutex are the four serving
// choices (FactoryASL, FactorySyncMutex, FactoryMCS, FactoryPthread).
// The paper's other baselines (TAS, ticket, ShflLock-PB) are
// reproduced in the simulator only (internal/simlock), which is where
// the figures that compare against them run.
//
// The paper ships LibASL twice, spinning over MCS and blocking over
// pthread_mutex; here ASLMutex is one stack for dedicated and
// over-subscribed cores alike: Reorderable over Fissile.
//
// Every wait is written once over an environment, Env: a clock, a
// yield, a spin step, a sleep, and park/unpark of one queued waiter.
// Algorithm 1's standby loop (Standby) and the slow paths of Fissile and
// MCSPark (the generic FissileOn and MCSParkOn) run on two clocks: the
// served locks on the wall clock and the Go scheduler, and the same code
// on a simulated thread's virtual time in internal/simlock. Standby has
// three flavours: StandbyServed, which Reorderable runs, and the paper's
// StandbySpin and StandbySleep, which SimReorderable runs.
//
// Locks here favour clarity and faithfulness to the published
// algorithms over absolute peak performance, but all avoid allocation
// on the hot path and pad contended words to cache lines.
package locks

import (
	"runtime"
	"sync"
)

// Locker is the basic lock interface; identical to sync.Locker and
// redeclared only so this package reads standalone.
type Locker = sync.Locker

// FIFOLock is a lock that admits waiters in arrival order and can
// report whether it is currently free. The reorderable lock (Algorithm
// 1) is built on this interface; MCS and MCSPark implement it, and so
// does Fissile, FIFO up to its bounded bypass.
type FIFOLock interface {
	Locker
	// TryLock acquires the lock iff it is free, without queueing.
	TryLock() bool
	// IsFree reports (approximately) whether the lock is free with no
	// waiters; standby competitors poll this.
	IsFree() bool
}

// pad is inserted between contended fields to avoid false sharing. 128
// bytes covers adjacent-line prefetching on common x86 parts.
type pad [128]byte

// yieldEvery controls how often busy-wait loops yield to the Go
// scheduler. Pure spinning deadlocks when GOMAXPROCS is smaller than
// the number of spinners, so every spin loop calls runtime.Gosched
// periodically.
const yieldEvery = 64

// Spinner is the busy-wait helper of the spin loops written outside
// Env: one wall-clock spin step per call. The zero value is ready; keep
// one per wait loop.
type Spinner struct{ n int }

// singleP caches whether the runtime has only one processor.
var singleP = runtime.GOMAXPROCS(0) == 1

// Spin performs one wait iteration.
func (s *Spinner) Spin() {
	s.n++
	wall{}.Spin(s.n)
}
