package locks

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFissileBypassIsBounded: a barger loops on Lock/Unlock and almost
// always wins the word back on the fast path, yet a queued waiter still
// acquires within patience plus a few critical sections, because once
// it has waited past patience it shuts the fast path.
func TestFissileBypassIsBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("the waiter needs a CPU of its own beside the bargers")
	}
	var f Fissile
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < procs-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f.Lock()
				busySpin(10_000) // a few µs: the unlock-to-relock gap is a sliver of it
				f.Unlock()
			}
		}()
	}
	waits := make([]time.Duration, 50)
	for i := range waits {
		start := time.Now()
		f.Lock()
		waits[i] = time.Since(start)
		f.Unlock()
		// Busy gap, not a sleep: the queue drains meanwhile, and the
		// waiter keeps its CPU.
		for gap := time.Now(); time.Since(gap) < 100*time.Microsecond; {
		}
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(waits)
	median := waits[len(waits)/2]
	t.Logf("waiter's wait: median %v, worst %v (patience %v)", median, waits[len(waits)-1], patience)
	if bound := patience + time.Millisecond; median > bound {
		t.Fatalf("queued waiter's median wait %v exceeds patience plus a few critical sections (%v)", median, bound)
	}
}

// TestFissileImpatientWaiterShutsFastPath: a waiter queued behind the
// holder turns impatient no sooner than patience, and from then on no
// arrival takes the word on the fast path — not even the holder
// re-locking the instant it unlocks — so the waiter goes first.
func TestFissileImpatientWaiterShutsFastPath(t *testing.T) {
	var f Fissile
	var order []string // guarded by f
	f.Lock()
	queued := time.Now()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		f.Lock()
		order = append(order, "waiter")
		f.Unlock()
	}()
	for !f.impatient.Load() {
		if time.Since(queued) > 10*time.Second {
			t.Fatal("queued waiter never turned impatient")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if waited := time.Since(queued); waited < patience {
		t.Fatalf("waiter turned impatient after %v, before patience %v", waited, patience)
	}
	f.Unlock()
	f.Lock()
	order = append(order, "holder")
	f.Unlock()
	<-waiterDone
	if order[0] != "waiter" {
		t.Fatalf("order %v: the holder bypassed an impatient waiter", order)
	}
}

// TestFissileQueuedWaiterBlocksTryLock: with the word free but a waiter
// queued for it, TryLock fails and IsFree reports held, as MCS does with
// a non-empty queue; once the queue drains both succeed.
func TestFissileQueuedWaiterBlocksTryLock(t *testing.T) {
	var f Fissile
	f.queue.Lock() // a waiter is queued; the word is free
	if f.IsFree() {
		t.Fatal("IsFree with a waiter queued")
	}
	if f.TryLock() {
		t.Fatal("TryLock won over a queued waiter")
	}
	f.queue.Unlock()
	if !f.IsFree() || !f.TryLock() {
		t.Fatal("drained lock is not free")
	}
	f.Unlock()
}
