package locks

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestReorderableImmediatePath(t *testing.T) {
	r := NewReorderable(new(MCS))
	r.LockImmediately()
	if r.IsFree() {
		t.Fatal("lock should be held")
	}
	r.Unlock()
	if !r.IsFree() {
		t.Fatal("lock should be free")
	}
}

func TestReorderableFreeFastPath(t *testing.T) {
	// A standby competitor takes a free lock immediately, regardless of
	// window size (§3.4: "no additional overhead" when uncontended).
	r := NewReorderable(new(MCS))
	start := time.Now()
	r.LockReorder(int64(time.Second))
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("free-lock reorder acquisition took %v", e)
	}
	r.Unlock()
}

// fifoBases are the FIFO locks the ordering tests run Reorderable over:
// the paper's MCS and the Fissile base ASLMutex uses.
var fifoBases = []struct {
	name string
	mk   func() FIFOLock
}{
	{"mcs", func() FIFOLock { return new(MCS) }},
	{"fissile", func() FIFOLock { return new(Fissile) }},
}

func TestReorderableWindowDelaysStandby(t *testing.T) {
	// While the lock is held, a standby competitor with a window waits
	// (up to the window) before enqueueing; an immediate competitor
	// that arrives during the window overtakes it.
	for _, base := range fifoBases {
		t.Run(base.name, func(t *testing.T) {
			r := NewReorderable(base.mk())
			r.LockImmediately()

			var order []string
			var mu sync.Mutex
			record := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

			var wg sync.WaitGroup
			wg.Add(2)
			standbyEntered := make(chan struct{})
			go func() {
				defer wg.Done()
				close(standbyEntered)
				r.LockReorder(int64(500 * time.Millisecond))
				record("standby")
				r.Unlock()
			}()
			<-standbyEntered
			time.Sleep(20 * time.Millisecond) // the standby is now polling
			go func() {
				defer wg.Done()
				r.LockImmediately()
				record("immediate")
				r.Unlock()
			}()
			time.Sleep(20 * time.Millisecond) // the immediate competitor is queued
			r.Unlock()
			wg.Wait()
			if len(order) != 2 || order[0] != "immediate" || order[1] != "standby" {
				t.Fatalf("order = %v, want immediate before standby (reordering)", order)
			}
		})
	}
}

func TestReorderableWindowExpiry(t *testing.T) {
	// Once the window expires the standby enqueues and acquires even if
	// the holder keeps the lock until then (bounded reordering).
	for _, base := range fifoBases {
		t.Run(base.name, func(t *testing.T) {
			r := NewReorderable(base.mk())
			r.LockImmediately()
			acquired := make(chan struct{})
			go func() {
				r.LockReorder(int64(30 * time.Millisecond))
				close(acquired)
				r.Unlock()
			}()
			time.Sleep(60 * time.Millisecond) // well past the window
			r.Unlock()
			select {
			case <-acquired:
			case <-time.After(5 * time.Second):
				t.Fatal("standby competitor never acquired after window expiry")
			}
		})
	}
}

// TestReorderableStandbySleeps covers the standby's sleep leg: the
// lock is held well past the served flavour's 20 µs yielding poll and
// then released inside a long window, and the standby, now sleeping
// between checks, must notice the free lock and take it well before its
// capped window ends.
func TestReorderableStandbySleeps(t *testing.T) {
	r := NewReorderable(new(Fissile))
	r.LockImmediately()
	const window = 10 * time.Second
	done := make(chan time.Time)
	go func() {
		r.LockReorder(int64(window))
		done <- time.Now()
		r.Unlock()
	}()
	time.Sleep(2 * time.Millisecond)
	released := time.Now()
	r.Unlock()
	select {
	case acquired := <-done:
		// Every window is capped at core.DefaultMaxWindow, so a standby
		// that missed the release would enqueue only at the cap.
		if wait, bound := acquired.Sub(released), time.Duration(core.DefaultMaxWindow/2); wait > bound {
			t.Fatalf("sleeping standby took %v after release, want at most %v", wait, bound)
		}
	case <-time.After(window):
		t.Fatal("sleeping standby never acquired")
	}
}

func TestASLMutexBigUsesImmediatePath(t *testing.T) {
	m := NewASLMutexDefault()
	big := core.NewWorker(core.WorkerConfig{Class: core.Big})
	m.Lock(big)
	if m.TryLock(big) {
		t.Fatal("TryLock must fail while held")
	}
	m.Unlock(big)
}

func TestASLMutexLittleOutsideEpochUsesMaxWindow(t *testing.T) {
	m := NewASLMutexDefault()
	little := core.NewWorker(core.WorkerConfig{Class: core.Little})
	// Lock is free: immediate acquisition even for standby competitors.
	start := time.Now()
	m.Lock(little)
	m.Unlock(little)
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("uncontended little acquisition took %v", e)
	}
}

// watchedFissile is the Fissile base NewASLMutexDefault builds, with
// its free-state reads counted: LockReorder reads it once before it
// stands by, so a second read is a standby competitor's poll.
type watchedFissile struct {
	Fissile
	freeReads atomic.Int32
}

func (f *watchedFissile) IsFree() bool {
	f.freeReads.Add(1)
	return f.Fissile.IsFree()
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestASLMutexHandsLittleWorkersTheirWindow checks the window Lock
// hands a little worker's standby, both ways. Outside any epoch it is
// the default maximum window: the little worker stands by on the held
// lock, a big worker queues meanwhile, and on release the big worker
// acquires first. Inside an epoch whose controller holds a zero window
// the little worker queues at once, so it acquires ahead of a big worker
// that queues after it. The test waits on the lock's own state, never
// on a sleep.
func TestASLMutexHandsLittleWorkersTheirWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch bool // lock inside an epoch whose window is 0
		first string
	}{
		{"outside-epoch", false, "big"},
		{"zero-window-epoch", true, "little"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := new(watchedFissile)
			m := NewASLMutex(f)
			holder := core.NewWorker(core.WorkerConfig{Class: core.Big})
			big := core.NewWorker(core.WorkerConfig{Class: core.Big})
			little := core.NewWorker(core.WorkerConfig{
				Class:         core.Little,
				NewController: func() core.Controller { return &core.Static{W: 0} },
			})
			m.Lock(holder)

			var order []string // guarded by m
			done := make(chan struct{}, 2)
			go func() {
				if tc.epoch {
					little.EpochStart(0)
				}
				m.Lock(little)
				order = append(order, "little")
				m.Unlock(little)
				done <- struct{}{}
			}()
			waitUntil(t, "the little worker stands by or queues", func() bool {
				return f.freeReads.Load() >= 2 || !f.queue.IsFree()
			})
			switch queued := !f.queue.IsFree(); {
			case tc.epoch && !queued:
				t.Fatal("a little worker in a zero-window epoch stands by instead of queueing")
			case !tc.epoch && queued:
				t.Fatal("a little worker outside any epoch queued at once: its window is not the default maximum")
			}

			tail := f.queue.tail.Load()
			go func() {
				m.Lock(big)
				order = append(order, "big")
				m.Unlock(big)
				done <- struct{}{}
			}()
			waitUntil(t, "the big worker queues", func() bool { return f.queue.tail.Load() != tail })
			m.Unlock(holder)
			for range 2 {
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("a worker never acquired; order so far %v", order)
				}
			}
			if order[0] != tc.first {
				t.Fatalf("order = %v, want the %s worker first", order, tc.first)
			}
		})
	}
}

func TestASLMutexMutualExclusionMixedClasses(t *testing.T) {
	m := NewASLMutexDefault()
	var counter int64
	var wg sync.WaitGroup
	iters := 3000
	if runtime.NumCPU() < 4 {
		iters = 800
	}
	for w := 0; w < 8; w++ {
		class := core.Big
		if w >= 4 {
			class = core.Little
		}
		wg.Add(1)
		go func(c core.Class) {
			defer wg.Done()
			worker := core.NewWorker(core.WorkerConfig{Class: c})
			for i := 0; i < iters; i++ {
				worker.EpochStart(0)
				m.Lock(worker)
				counter++
				m.Unlock(worker)
				worker.EpochEnd(0, int64(time.Millisecond))
			}
		}(class)
	}
	wg.Wait()
	if counter != int64(8*iters) {
		t.Fatalf("lost updates: %d", counter)
	}
}

func TestASLMutexBindLocker(t *testing.T) {
	m := NewASLMutexDefault()
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	var l Locker = m.Bind(w)
	l.Lock()
	l.Unlock()
	// Bind must work with sync.Cond (condition-variable support).
	cond := sync.NewCond(m.Bind(w))
	fired := make(chan struct{})
	go func() {
		cond.L.Lock()
		cond.Wait()
		cond.L.Unlock()
		close(fired)
	}()
	time.Sleep(20 * time.Millisecond)
	cond.L.Lock()
	cond.Signal()
	cond.L.Unlock()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("cond.Wait never woke")
	}
}

func TestASLFeedbackConvergesUnderContention(t *testing.T) {
	// With a tight SLO and heavy big-core pressure, the little worker's
	// window must shrink from its initial value (violations) and the
	// little worker must keep acquiring (no starvation).
	m := NewASLMutexDefault()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Lock(worker)
				busySpin(2000)
				m.Unlock(worker)
			}
		}()
	}
	little := core.NewWorker(core.WorkerConfig{
		Class: core.Little,
		AIMD:  core.AIMDConfig{InitWindow: int64(time.Millisecond)},
	})
	var acquired atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			little.EpochStart(0)
			m.Lock(little)
			acquired.Add(1)
			m.Unlock(little)
			// SLO 0: every epoch violates by construction, so the
			// window must collapse regardless of host scheduling.
			little.EpochEnd(0, 0)
		}
	}()
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for acquired.Load() < 300 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("little worker starved: only %d acquisitions", acquired.Load())
		case <-tick.C:
		}
	}
	close(stop)
	wg.Wait()
	if w := little.EpochWindow(0); w >= int64(time.Millisecond) {
		t.Fatalf("window never shrank under violations: %d", w)
	}
}

// TestASLNoOversubscriptionCliff is the oversubscription gate: a fixed
// number of FactoryASL acquisitions, half by big and half by little
// workers in interactive-SLO epochs, must not take more than twice as
// long at 16×GOMAXPROCS goroutines as at GOMAXPROCS. A lock that hands
// over to a waiter the scheduler has not run — FIFO over a spinning
// queue — takes an order of magnitude longer at 16×.
func TestASLNoOversubscriptionCliff(t *testing.T) {
	acquisitions := 240_000
	if raceEnabled {
		acquisitions = 60_000
	}
	p := max(runtime.GOMAXPROCS(0), 2)
	// Best of 3 at each size, interleaved so that a burst of host noise
	// lands on both sizes rather than on all three runs of one.
	atP, at16P := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		atP = min(atP, aslFixedWork(t, p, acquisitions/p))
		at16P = min(at16P, aslFixedWork(t, 16*p, acquisitions/(16*p)))
	}
	ratio := float64(at16P) / float64(atP)
	t.Logf("%d acquisitions: %v at %d goroutines, %v at %d: %.1fx", acquisitions, atP, p, at16P, 16*p, ratio)
	if ratio > 2 {
		t.Fatalf("oversubscription cliff: %.1fx slower at %d goroutines than at %d", ratio, 16*p, p)
	}
}

// aslFixedWork runs rounds acquisitions on each of goroutines workers,
// alternating big and little, over one FactoryASL lock and returns the
// wall time from a common start.
func aslFixedWork(t *testing.T, goroutines, rounds int) time.Duration {
	l := FactoryASL()()
	slo := int64(100 * time.Microsecond)
	counter := 0
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			<-gate
			for i := 0; i < rounds; i++ {
				w.EpochStart(0)
				l.Acquire(w)
				counter++
				l.Release(w)
				w.EpochEnd(0, slo)
			}
		}(core.Class(g % 2))
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)
	if counter != goroutines*rounds {
		t.Fatalf("lost updates: %d, want %d", counter, goroutines*rounds)
	}
	return elapsed
}

// BenchmarkASLUncontended is the uncontended acquire/release pair of
// the one ASL stack for each class: the cost every served operation
// pays at its shard lock.
func BenchmarkASLUncontended(b *testing.B) {
	for _, c := range []struct {
		name  string
		class core.Class
	}{{"big", core.Big}, {"little", core.Little}} {
		b.Run(c.name, func(b *testing.B) {
			l := FactoryASL()()
			w := core.NewWorker(core.WorkerConfig{Class: c.class})
			b.ReportAllocs()
			for b.Loop() {
				l.Acquire(w)
				l.Release(w)
			}
		})
	}
}

// busySpin burns roughly n iterations of CPU.
func busySpin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}
