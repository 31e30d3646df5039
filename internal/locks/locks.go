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
// Algorithm 1's standby loop is written once (Standby, over a Waiter)
// in three flavours: StandbyServed, which Reorderable runs on the wall
// clock, and the paper's StandbySpin and StandbySleep, which
// internal/simlock's SimReorderable runs on virtual time.
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

// Spinner is the busy-wait helper every spin loop in the repository
// uses: short delays with periodic scheduler yields. The zero value is
// ready; keep one per wait loop.
type Spinner struct{ n uint }

// singleP caches whether the runtime has only one processor, in which
// case busy-waiting can never make progress and every spin must yield.
var singleP = runtime.GOMAXPROCS(0) == 1

// Spin performs one wait iteration.
func (s *Spinner) Spin() {
	if singleP {
		runtime.Gosched()
		return
	}
	s.n++
	if s.n%yieldEvery == 0 {
		runtime.Gosched()
		return
	}
	// A short arithmetic loop approximates a PAUSE-style delay without
	// hammering the contended cache line.
	for i := 0; i < 4; i++ {
		_ = i
	}
}
