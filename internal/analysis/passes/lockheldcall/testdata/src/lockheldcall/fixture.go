// Fixture for the lockheldcall pass: import-free stand-ins for the
// shard lock and store API, violating and conforming critical-section
// shapes — including the TryAcquire-success-branch and the negated
// early-return election form.
package lockheldcall

type Worker struct{}

type WLock struct{ held bool }

func (l *WLock) Acquire(w *Worker)         { l.held = true }
func (l *WLock) Release(w *Worker)         { l.held = false }
func (l *WLock) TryAcquire(w *Worker) bool { return !l.held }

type shard struct{ lock WLock }

// Store is the fixture's stand-in for the re-entrant public API.
type Store struct{}

func (s *Store) Get(w *Worker, k uint64) int { return 0 }
func (s *Store) internalGet(k uint64) int    { return 0 }

// Classed is the stand-in for the fixed-class view of that API.
type Classed struct{ s *Store }

func (v Classed) Get(w *Worker, k uint64) int { return v.s.Get(w, k) }

// Log is the fixture's stand-in for wal.Log: Append/Rotate buffer and
// are legal under the shard lock; Commit/Sync/WriteCheckpoint/Close
// issue fsync and are not.
type Log struct{}

func (l *Log) Append(kind uint8, k uint64, v []byte) (uint64, error) { return 0, nil }
func (l *Log) Rotate() (uint64, error)                               { return 0, nil }
func (l *Log) Commit(lsn uint64) error                               { return nil }
func (l *Log) Sync() error                                           { return nil }
func (l *Log) WriteCheckpoint(b uint64) error                        { return nil }
func (l *Log) Close() error                                          { return nil }

// --- violations ---

func badCallback(sh *shard, w *Worker, fn func(int)) {
	sh.lock.Acquire(w)
	fn(1) // want `call to user callback fn while a shard lock is held`
	sh.lock.Release(w)
}

func badSend(sh *shard, w *Worker, ch chan int) {
	sh.lock.Acquire(w)
	ch <- 1 // want `channel send while a shard lock is held`
	sh.lock.Release(w)
}

func badReentrantStore(sh *shard, w *Worker, st *Store) {
	sh.lock.Acquire(w)
	_ = st.Get(w, 1) // want `re-entrant Store.Get call while a shard lock is held`
	sh.lock.Release(w)
}

func badReentrantView(sh *shard, w *Worker, v Classed) {
	sh.lock.Acquire(w)
	_ = v.Get(w, 1) // want `re-entrant Classed.Get call while a shard lock is held`
	sh.lock.Release(w)
}

func badTrySuccessBranch(sh *shard, w *Worker, fn func(int)) {
	if sh.lock.TryAcquire(w) {
		fn(1) // want `call to user callback fn`
		sh.lock.Release(w)
	}
}

func badElectEarlyReturn(sh *shard, w *Worker, ch chan int) {
	if !sh.lock.TryAcquire(w) {
		return
	}
	ch <- 1 // want `channel send while a shard lock is held`
	sh.lock.Release(w)
}

func badLabeledBreakHold(sh *shard, w *Worker, ch chan int, n int) {
out:
	for i := 0; i < n; i++ {
		sh.lock.Acquire(w)
		if i == 3 {
			break out // exits the loop with the lock still held
		}
		sh.lock.Release(w)
	}
	ch <- 1 // want `channel send while a shard lock is held`
	sh.lock.Release(w)
}

func badCommitUnderLock(sh *shard, w *Worker, lg *Log) {
	sh.lock.Acquire(w)
	lsn, _ := lg.Append(1, 7, nil)
	_ = lg.Commit(lsn) // want `wal\.Log\.Commit issues fsync while a shard lock is held`
	sh.lock.Release(w)
}

func badSyncUnderElection(sh *shard, w *Worker, lg *Log) {
	if !sh.lock.TryAcquire(w) {
		return
	}
	_ = lg.Sync() // want `wal\.Log\.Sync issues fsync while a shard lock is held`
	sh.lock.Release(w)
}

func badCheckpointUnderLock(sh *shard, w *Worker, lg *Log) {
	sh.lock.Acquire(w)
	_ = lg.WriteCheckpoint(3) // want `wal\.Log\.WriteCheckpoint issues fsync while a shard lock is held`
	sh.lock.Release(w)
}

func badLogCloseUnderLock(sh *shard, w *Worker, lg *Log) {
	sh.lock.Acquire(w)
	_ = lg.Close() // want `wal\.Log\.Close issues fsync while a shard lock is held`
	sh.lock.Release(w)
}

// --- conforming ---

func okAppendUnderLockCommitAfter(sh *shard, w *Worker, lg *Log) {
	sh.lock.Acquire(w)
	lsn, _ := lg.Append(1, 7, nil) // buffered append: legal under the lock
	_, _ = lg.Rotate()             // seals without fsync: legal under the lock
	sh.lock.Release(w)
	_ = lg.Commit(lsn) // the group commit runs after release
}

func okLoopAcquireRelease(sh *shard, w *Worker, fn func(int)) {
	for i := 0; i < 4; i++ {
		sh.lock.Acquire(w)
		sh.lock.Release(w)
	}
	fn(1) // released on every path around the loop
}

func okEmitAfterRelease(sh *shard, w *Worker, fn func(int)) {
	sh.lock.Acquire(w)
	v := 1
	sh.lock.Release(w)
	fn(v)
}

func okSendAfterRelease(sh *shard, w *Worker, ch chan int) {
	sh.lock.Acquire(w)
	v := 1
	sh.lock.Release(w)
	ch <- v
}

func okUnexportedHelper(sh *shard, w *Worker, st *Store) {
	sh.lock.Acquire(w)
	_ = st.internalGet(1)
	sh.lock.Release(w)
}

func okElectedThenReleased(sh *shard, w *Worker, fn func(int)) {
	if !sh.lock.TryAcquire(w) {
		return
	}
	v := 2
	sh.lock.Release(w)
	fn(v)
}

func okClosureDefinedNotCalled(sh *shard, w *Worker) func() int {
	sh.lock.Acquire(w)
	f := func() int { return 1 }
	sh.lock.Release(w)
	return f
}

func okReleasedInBranchTaken(sh *shard, w *Worker, ch chan int, cond bool) {
	sh.lock.Acquire(w)
	if cond {
		sh.lock.Release(w)
		ch <- 1 // released on this branch
		return
	}
	sh.lock.Release(w)
}

func okSuppressedVisitor(sh *shard, w *Worker, fn func(int)) {
	sh.lock.Acquire(w)
	//lint:ignore lockheldcall fixture: internal visitor contractually runs under the shard lock
	fn(1)
	sh.lock.Release(w)
}
