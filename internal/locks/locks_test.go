package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// The shared mutual-exclusion / TryAcquire torture checker for every
// family lives in harness_test.go; this file keeps the per-family
// policy tests (FIFO order, barging), the plain-Locker IsFree
// conformance the WLock surface hides, and the contended benchmark of
// the serving lock choices.

// full is the interface every plain lock in this package satisfies.
type full interface {
	Locker
	TryLock() bool
	IsFree() bool
}

// allLocks enumerates every plain Locker implementation.
func allLocks() map[string]func() full {
	return map[string]func() full{
		"mcs":     func() full { return new(MCS) },
		"mcspark": func() full { return new(wallMCSPark) },
		"fissile": func() full { return new(wallFissile) },
		"barging": func() full { return new(BargingMutex) },
	}
}

// TestIsFreeConformance pins the IsFree transitions the standby
// competitors rely on: held ⇒ not free, released ⇒ free.
func TestIsFreeConformance(t *testing.T) {
	for name, mk := range allLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			if !l.IsFree() {
				t.Fatal("fresh lock must report free")
			}
			if !l.TryLock() {
				t.Fatal("TryLock on a free lock must succeed")
			}
			if l.IsFree() {
				t.Fatal("held lock must not report free")
			}
			l.Unlock()
			if !l.IsFree() {
				t.Fatal("released lock must report free")
			}
			// Usable again through the normal path.
			l.Lock()
			l.Unlock()
		})
	}
}

// TestMCSFIFOOrder verifies arrival-order handover: a goroutine that
// enqueues while the lock is held must acquire before one that
// enqueues after it.
func TestMCSFIFOOrder(t *testing.T) {
	for name, mk := range map[string]func() full{
		"mcs":     func() full { return new(MCS) },
		"mcspark": func() full { return new(wallMCSPark) },
	} {
		t.Run(name, func(t *testing.T) {
			l := mk()
			l.Lock() // hold so waiters queue up

			const waiters = 6
			var order []int
			var mu sync.Mutex
			var wg sync.WaitGroup
			// Launch waiters with generous spacing so each Lock call is
			// (with overwhelming likelihood) enqueued before the next
			// goroutine starts.
			for i := 0; i < waiters; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.Lock()
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					l.Unlock()
				}()
				time.Sleep(20 * time.Millisecond)
			}
			l.Unlock()
			wg.Wait()
			for i := 1; i < len(order); i++ {
				if order[i] < order[i-1] {
					t.Fatalf("%s violated FIFO: %v", name, order)
				}
			}
		})
	}
}

func TestBargingMutexAllowsBarging(t *testing.T) {
	// Not an ordering guarantee test — just documents that a TryLock
	// (barging CAS) can succeed the instant the lock is free even with
	// sleepers present; pthread semantics.
	var m BargingMutex
	m.Lock()
	woke := make(chan struct{})
	go func() {
		m.Lock() // sleeps
		m.Unlock()
		close(woke)
	}()
	time.Sleep(10 * time.Millisecond) // let the sleeper park
	m.Unlock()
	<-woke // the sleeper must still eventually acquire (no lost wakeup)
}

func TestBargingNoLostWakeup(t *testing.T) {
	// Repeatedly create contention bursts; a lost wakeup would hang.
	var m BargingMutex
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				m.Unlock()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("lost wakeup: workers hung")
		}
	}
}

// BenchmarkWLockParallel is the contended acquire/release pair of each
// serving lock choice (kvserver -lock) through WLock: every goroutine
// of b.RunParallel owns one worker, big and little in turn, and all of
// them take one lock around an empty critical section.
func BenchmarkWLockParallel(b *testing.B) {
	for _, c := range []struct {
		name string
		f    Factory
	}{
		{"asl", FactoryASL()},
		{"mutex", FactorySyncMutex()},
		{"mcs", FactoryMCS()},
		{"pthread", FactoryPthread()},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := c.f()
			var workers atomic.Int32
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := core.NewWorker(core.WorkerConfig{Class: core.Class(workers.Add(1) % 2)})
				for pb.Next() {
					l.Acquire(w)
					l.Release(w)
				}
			})
		})
	}
}
