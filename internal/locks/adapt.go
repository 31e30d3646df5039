package locks

import (
	"sync"

	"repro/internal/core"
)

// WLock is a worker-aware lock: ASLMutex's acquire path depends on the
// worker's core class, while the plain locks ignore it. The sharded
// store and the lock benchmarks are written against this interface so
// any serving lock can guard a shard (paper §4.2 swaps the lock under
// five databases; kvserver's -lock swaps it under the store).
type WLock interface {
	Acquire(w *core.Worker)
	Release(w *core.Worker)
	// TryAcquire acquires the lock iff it is immediately available,
	// without queueing or standing by. The flat-combining pipeline uses
	// it for combiner election: whoever wins the try drains the shard's
	// request queue on everyone else's behalf, so a failed try means
	// "someone else is (or is about to be) combining" and the caller
	// should keep waiting on its request instead of piling onto the
	// queue lock.
	TryAcquire(w *core.Worker) bool
}

// plainW adapts any sync.Locker-style lock that can try.
type plainW struct {
	l interface {
		Locker
		TryLock() bool
	}
}

func (p plainW) Acquire(w *core.Worker)         { p.l.Lock() }
func (p plainW) Release(w *core.Worker)         { p.l.Unlock() }
func (p plainW) TryAcquire(w *core.Worker) bool { return p.l.TryLock() }

// Wrap adapts a class-oblivious lock to WLock.
func Wrap(l interface {
	Locker
	TryLock() bool
}) WLock {
	return plainW{l}
}

// Factory builds one lock instance per call; the sharded store calls it
// once per shard.
type Factory func() WLock

// FactoryPthread returns BargingMutex locks, the pthread_mutex stand-in.
// With FactoryASL, FactorySyncMutex and FactoryMCS it is one of the
// serving lock choices kvserver's -lock names.
func FactoryPthread() Factory { return func() WLock { return Wrap(new(BargingMutex)) } }

// FactorySyncMutex returns Go's standard sync.Mutex, the class-
// oblivious baseline the sharded KV benchmarks compare ASL shard locks
// against.
func FactorySyncMutex() Factory { return func() WLock { return Wrap(new(sync.Mutex)) } }

// FactoryMCS returns MCS locks.
func FactoryMCS() Factory { return func() WLock { return Wrap(new(MCS)) } }

// FactoryASL returns ASLMutex locks. The returned locks share nothing;
// each epoch's window lives in the worker, exactly as in the paper.
func FactoryASL() Factory { return func() WLock { return new(ASLMutex) } }
