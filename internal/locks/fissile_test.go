package locks

import "testing"

// wallFissile and wallMCSPark are FissileOn and MCSParkOn on the wall
// clock as plain Lockers, for the lock tables.
type wallFissile struct{ FissileOn[wall] }

func (f *wallFissile) Lock() { f.FissileOn.Lock(wall{}) }

type wallMCSPark struct{ MCSParkOn[wall] }

func (m *wallMCSPark) Lock()   { m.MCSParkOn.Lock(wall{}) }
func (m *wallMCSPark) Unlock() { m.MCSParkOn.Unlock(wall{}) }

// TestFissileQueuedWaiterBlocksTryLock: with the word free but a waiter
// queued for it, TryLock fails and IsFree reports held, as MCS does with
// a non-empty queue; once the queue drains both succeed.
func TestFissileQueuedWaiterBlocksTryLock(t *testing.T) {
	var f FissileOn[wall]
	f.queue.Lock(wall{}) // a waiter is queued; the word is free
	if f.IsFree() {
		t.Fatal("IsFree with a waiter queued")
	}
	if f.TryLock() {
		t.Fatal("TryLock won over a queued waiter")
	}
	f.queue.Unlock(wall{})
	if !f.IsFree() || !f.TryLock() {
		t.Fatal("drained lock is not free")
	}
	f.Unlock()
}
