// Package locks implements the real (non-simulated) locks a shard of
// the store can run, all usable from ordinary Go code:
//
//   - ASLMutex, LibASL and the default shard lock: the paper's
//     Algorithm 3 over its reorderable lock (Algorithm 1), bound to the
//     epoch/SLO feedback in internal/core, over FissileOn, a
//     test-and-set word in front of the spin-then-park MCS queue
//     MCSParkOn (Dice & Kogan's Fissile Locks)
//   - MCS, the paper's spinning FIFO queue lock
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
// pthread_mutex; here it is one lock for dedicated and over-subscribed
// cores alike, written once as ASLOn.
//
// Every wait is written once over an environment, Env: a clock, a
// yield, a spin step, a sleep, and park/unpark of one queued waiter.
// ASLOn, FissileOn, MCSParkOn and Algorithm 1's standby loop (Standby)
// run on two clocks: ASLMutex is ASLOn on the wall clock and the Go
// scheduler, and the tests run the same code on a simulated thread's
// virtual time (internal/simlock's Env). Standby has three flavours:
// StandbyServed, which ASLOn runs, and the paper's StandbySpin and
// StandbySleep, which simlock's SimReorderable runs.
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
