package locks

import (
	"sync"

	"repro/internal/core"
)

// WLock is a worker-aware lock: the acquire path may depend on the
// worker's core class (ASLMutex, class-biased TAS, the proportional
// lock), while plain locks ignore it. The sharded store and the lock
// benchmarks are written against this interface so any lock of the
// evaluation can be injected (paper §4.2 swaps the lock under five
// databases).
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

// tryLocker is the optional try capability of a wrapped Locker
// (sync.Mutex has had it since Go 1.18; every lock in this package
// implements it).
type tryLocker interface{ TryLock() bool }

// plainW adapts any sync.Locker-style lock. try is resolved once at
// wrap time; nil means the wrapped lock cannot try.
type plainW struct {
	l   Locker
	try func() bool
}

func (p plainW) Acquire(w *core.Worker) { p.l.Lock() }
func (p plainW) Release(w *core.Worker) { p.l.Unlock() }

// TryAcquire tries the wrapped lock. A Locker without TryLock degrades
// to a blocking acquire that always reports success: mutual exclusion
// is preserved and combiner election still terminates, it just loses
// its non-blocking fast-fail (no such lock exists in this repository).
func (p plainW) TryAcquire(w *core.Worker) bool {
	if p.try != nil {
		return p.try()
	}
	p.l.Lock()
	return true
}

// Wrap adapts a class-oblivious lock to WLock.
func Wrap(l Locker) WLock {
	p := plainW{l: l}
	if tl, ok := l.(tryLocker); ok {
		p.try = tl.TryLock
	}
	return p
}

// tasW routes through TAS.LockClass so the emulated atomic-success
// bias applies.
type tasW struct{ t *TAS }

func (a tasW) Acquire(w *core.Worker) { a.t.LockClass(w.Class()) }
func (a tasW) Release(w *core.Worker) { a.t.Unlock() }

// TryAcquire bypasses the affinity bias: a single CAS either wins or
// does not, there is no emulated retry to weight.
func (a tasW) TryAcquire(w *core.Worker) bool { return a.t.TryLock() }

// WrapTAS adapts a TAS lock, honouring its affinity bias.
func WrapTAS(t *TAS) WLock { return tasW{t} }

// propW routes through Proportional.LockClass so the policy sees the
// competitor's class.
type propW struct{ p *Proportional }

func (a propW) Acquire(w *core.Worker) { a.p.LockClass(w.Class()) }
func (a propW) Release(w *core.Worker) { a.p.Unlock() }

// TryAcquire acquires iff the lock is free with no queue.
func (a propW) TryAcquire(w *core.Worker) bool { return a.p.TryLock() }

// WrapProportional adapts the proportional lock.
func WrapProportional(p *Proportional) WLock { return propW{p} }

// aslW is the ASLMutex view.
type aslW struct{ m *ASLMutex }

func (a aslW) Acquire(w *core.Worker) { a.m.Lock(w) }
func (a aslW) Release(w *core.Worker) { a.m.Unlock(w) }

// TryAcquire tries the underlying FIFO lock directly (§3.3: trylock is
// supported because the reorderable layer never modifies the base
// lock). Class plays no role in a try: there is no wait to reorder.
func (a aslW) TryAcquire(w *core.Worker) bool { return a.m.TryLock(w) }

// WrapASL adapts an ASLMutex.
func WrapASL(m *ASLMutex) WLock { return aslW{m} }

// Factory builds one lock instance per call; the sharded store calls it
// once per shard.
type Factory func() WLock

// Named lock factories covering the evaluation's comparison set.
func FactoryPthread() Factory { return func() WLock { return Wrap(new(BargingMutex)) } }

// FactorySyncMutex returns Go's standard sync.Mutex, the class-
// oblivious baseline the sharded KV benchmarks compare ASL shard locks
// against.
func FactorySyncMutex() Factory { return func() WLock { return Wrap(new(sync.Mutex)) } }

// FactoryTAS returns TAS locks with the given emulated affinity
// (factor < 2 disables the bias).
func FactoryTAS(favoured core.Class, factor uint) Factory {
	return func() WLock {
		t := new(TAS)
		t.SetAffinity(favoured, factor)
		return WrapTAS(t)
	}
}

// FactoryTicket returns ticket locks.
func FactoryTicket() Factory { return func() WLock { return Wrap(new(Ticket)) } }

// FactoryMCS returns MCS locks.
func FactoryMCS() Factory { return func() WLock { return Wrap(new(MCS)) } }

// FactoryProportional returns SHFL-PBn-style locks.
func FactoryProportional(n int) Factory {
	return func() WLock { return WrapProportional(&Proportional{N: n}) }
}

// FactoryASL returns LibASL over MCS (the paper's default stack). The
// returned locks share nothing; each epoch's window lives in the
// worker, exactly as in the paper.
func FactoryASL() Factory {
	return func() WLock { return WrapASL(NewASLMutexDefault()) }
}

// FactoryASLBlocking returns the blocking LibASL used under
// over-subscription: sleeping standby over the barging mutex.
func FactoryASLBlocking() Factory {
	return func() WLock { return WrapASL(NewASLMutex(new(BargingMutex), true)) }
}
