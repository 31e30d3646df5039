package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestContentionCountsFreeAndHeld checks, on every lock family, what a
// caller probing with TryAcquire sees: every try on a free lock wins,
// every try on a held lock fails, a blocking Acquire that finds the
// lock held returns only after the holder released it, and the lock is
// free again afterwards.
func TestContentionCountsFreeAndHeld(t *testing.T) {
	const tries = 16
	for _, tf := range harnessFamilies() {
		t.Run(tf.name, func(t *testing.T) {
			l := tf.f()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			other := core.NewWorker(core.WorkerConfig{Class: core.Little})

			l.Acquire(w)
			won := 0
			for i := 0; i < tries; i++ {
				if l.TryAcquire(other) {
					won++
				}
			}
			if won != 0 {
				t.Fatalf("%d of %d tries won a held lock", won, tries)
			}

			// A blocking acquire on the held lock must not return before
			// the holder's Release.
			var released atomic.Bool
			started := make(chan struct{})
			acquired := make(chan bool)
			go func() {
				close(started)
				l.Acquire(other)
				acquired <- released.Load()
			}()
			<-started
			for i := 0; i < 64; i++ {
				runtime.Gosched()
			}
			released.Store(true)
			l.Release(w)
			if !<-acquired {
				t.Fatal("blocked Acquire returned before the holder released")
			}
			if l.TryAcquire(w) {
				t.Fatal("TryAcquire won while the former waiter holds the lock")
			}
			l.Release(other)

			for i := 0; i < tries; i++ {
				if !l.TryAcquire(w) {
					t.Fatalf("try %d on a free lock failed", i)
				}
				l.Release(w)
			}
		})
	}
}

// TestContentionMutualExclusion hammers every family with an even mix
// of try-spinning and blocking workers of both classes: no update may
// be lost, and every winning try must be exactly one critical section,
// so the try-spinners' wins equal their rounds however many tries
// failed on the way. Run with -race.
func TestContentionMutualExclusion(t *testing.T) {
	workers, rounds := tortureSize(t)
	for _, tf := range harnessFamilies() {
		t.Run(tf.name, func(t *testing.T) {
			l := tf.f()
			var counter int
			var wins, failed atomic.Uint64
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					class := core.Big
					if i%2 == 1 {
						class = core.Little
					}
					w := core.NewWorker(core.WorkerConfig{Class: class})
					for r := 0; r < rounds; r++ {
						if i%2 == 0 {
							for !l.TryAcquire(w) {
								failed.Add(1)
								runtime.Gosched()
							}
							wins.Add(1)
						} else {
							l.Acquire(w)
						}
						counter++
						l.Release(w)
					}
				}(i)
			}
			wg.Wait()
			if counter != workers*rounds {
				t.Fatalf("lost updates: counter = %d, want %d", counter, workers*rounds)
			}
			if want := uint64((workers + 1) / 2 * rounds); wins.Load() != want {
				t.Fatalf("winning tries = %d, want %d (one per try-spinner round; %d tries failed)",
					wins.Load(), want, failed.Load())
			}
		})
	}
}
