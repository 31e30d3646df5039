package locks

import "testing"

// TestFissileQueuedWaiterBlocksTryLock: with the word free but a waiter
// queued for it, TryLock fails and IsFree reports held, as MCS does with
// a non-empty queue; once the queue drains both succeed.
func TestFissileQueuedWaiterBlocksTryLock(t *testing.T) {
	var f Fissile
	f.on.queue.Lock(wall{}) // a waiter is queued; the word is free
	if f.IsFree() {
		t.Fatal("IsFree with a waiter queued")
	}
	if f.TryLock() {
		t.Fatal("TryLock won over a queued waiter")
	}
	f.on.queue.Unlock(wall{})
	if !f.IsFree() || !f.TryLock() {
		t.Fatal("drained lock is not free")
	}
	f.Unlock()
}
