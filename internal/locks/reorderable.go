package locks

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// Reorderable is the paper's reorderable lock (Algorithm 1): a bounded
// reorder capability layered on an unmodified FIFO lock.
//
//   - LockImmediately appends the caller to the FIFO queue right away.
//   - LockReorder makes the caller a standby competitor: it polls the
//     lock's free state, briefly and then between sleeps, for at most
//     the given window, then enqueues. Competitors that arrive through
//     LockImmediately during that window therefore overtake it —
//     reordering bounded by the window.
//
// The underlying FIFO lock is not modified in any way; Unlock is a
// direct pass-through, and TryLock remains available (§3.3: "Since the
// reorderable lock is implemented atop of existing locks, both the
// trylock and the nested locking are supported").
type Reorderable struct {
	fifo FIFOLock
	// MaxWindow caps every reorder window, keeping the lock
	// starvation-free (§3.2). Zero means core.DefaultMaxWindow.
	MaxWindow int64
	// clock supplies the standby's nanosecond time.
	clock core.Clock
}

// NewReorderable wraps the given FIFO lock: MCS in the paper, Fissile
// under ASLMutex. The clock is installed here, not lazily on first
// standby wait: two standby competitors racing to initialise it would
// be a data race.
func NewReorderable(fifo FIFOLock) *Reorderable {
	return &Reorderable{fifo: fifo, clock: core.NowFunc()}
}

func (r *Reorderable) maxWindow() int64 {
	if r.MaxWindow <= 0 {
		return core.DefaultMaxWindow
	}
	return r.MaxWindow
}

// LockImmediately enqueues on the FIFO lock right away (Algorithm 1,
// lock_immediately). Big-core competitors use this path.
func (r *Reorderable) LockImmediately() { r.fifo.Lock() }

// LockReorder acquires the lock as a standby competitor with the given
// reorder window in nanoseconds (Algorithm 1, lock_reorder). The window
// is a hint, not a strict order constraint: when it expires the caller
// simply enqueues like everyone else.
func (r *Reorderable) LockReorder(windowNs int64) {
	if maxW := r.maxWindow(); windowNs > maxW {
		windowNs = maxW
	}
	if r.fifo.IsFree() {
		r.fifo.Lock()
		return
	}
	if windowNs > 0 {
		r.standby(windowNs)
	}
	r.fifo.Lock()
}

// standbySpin bounds the polling half of a standby: long enough to see
// a short critical section end without sleeping, short enough that a
// long window costs little CPU.
const standbySpin = int64(20 * time.Microsecond)

// The standby's sleep slices double from standbyMinSleep to
// standbyMaxSleep.
const (
	standbyMinSleep = int64(10 * time.Microsecond)
	standbyMaxSleep = int64(time.Millisecond)
)

// standby is the standby loop of Algorithm 1 (lines 8–14): wait until
// the window ends or the lock is free. For the first standbySpin it
// polls, yielding the processor between polls so that when goroutines
// outnumber CPUs a standby never keeps the holder or a big competitor
// off one; after that it sleeps in doubling slices, the paper's
// blocking flavour (footnote 3), so a long window costs no CPU.
func (r *Reorderable) standby(windowNs int64) {
	now := r.clock()
	windowEnd, spinEnd := now+windowNs, now+min(windowNs, standbySpin)
	for ; now < spinEnd; now = r.clock() {
		if r.fifo.IsFree() {
			return
		}
		runtime.Gosched()
	}
	for d := standbyMinSleep; now < windowEnd && !r.fifo.IsFree(); now = r.clock() {
		time.Sleep(time.Duration(min(d, windowEnd-now)))
		d = min(2*d, standbyMaxSleep)
	}
}

// Lock acquires through the immediate path, making Reorderable a plain
// sync.Locker for code that is not class-aware.
func (r *Reorderable) Lock() { r.LockImmediately() }

// TryLock acquires the underlying lock iff it is free.
func (r *Reorderable) TryLock() bool { return r.fifo.TryLock() }

// IsFree reports whether the underlying lock is free.
func (r *Reorderable) IsFree() bool { return r.fifo.IsFree() }

// Unlock releases via the unmodified FIFO unlock (Algorithm 1,
// unlock_fifo pass-through).
func (r *Reorderable) Unlock() { r.fifo.Unlock() }
