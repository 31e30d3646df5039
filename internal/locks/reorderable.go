package locks

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
}

// NewReorderable wraps the given FIFO lock: MCS in the paper, Fissile
// under ASLMutex.
func NewReorderable(fifo FIFOLock) *Reorderable {
	return &Reorderable{fifo: fifo}
}

// LockImmediately enqueues on the FIFO lock right away (Algorithm 1,
// lock_immediately). Big-core competitors use this path.
func (r *Reorderable) LockImmediately() { r.fifo.Lock() }

// LockReorder acquires the lock as a standby competitor with the given
// reorder window in nanoseconds (Algorithm 1, lock_reorder), standing
// by in the StandbyServed flavour. The window is a hint, not a strict
// order constraint: when it expires the caller simply enqueues like
// everyone else.
func (r *Reorderable) LockReorder(windowNs int64) {
	if !r.fifo.IsFree() {
		Standby(wallWaiter{r.fifo}, StandbyServed, windowNs)
	}
	r.fifo.Lock()
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
