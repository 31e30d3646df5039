package locks

import (
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

func TestReorderableWindowDelaysStandby(t *testing.T) {
	// While the lock is held, a standby competitor with a window waits
	// (up to the window) before enqueueing; an immediate competitor
	// that arrives during the window overtakes it.
	r := NewReorderable(new(MCS))
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
}

func TestReorderableWindowExpiry(t *testing.T) {
	// Once the window expires the standby enqueues and acquires even if
	// the holder keeps the lock until then (bounded reordering).
	r := NewReorderable(new(MCS))
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
}

func TestReorderableMaxWindowClamp(t *testing.T) {
	r := NewReorderable(new(MCS))
	r.MaxWindow = int64(10 * time.Millisecond)
	r.LockImmediately()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		r.LockReorder(int64(time.Hour)) // clamped to 10ms
		close(done)
		r.Unlock()
	}()
	time.Sleep(30 * time.Millisecond)
	r.Unlock()
	<-done
	if e := time.Since(start); e > 3*time.Second {
		t.Fatalf("clamped standby took %v", e)
	}
}

func TestReorderableSleepingVariant(t *testing.T) {
	r := NewReorderable(new(BargingMutex))
	r.Sleeping = true
	r.LockImmediately()
	done := make(chan struct{})
	go func() {
		r.LockReorder(int64(20 * time.Millisecond))
		close(done)
		r.Unlock()
	}()
	time.Sleep(50 * time.Millisecond)
	r.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sleeping standby never acquired")
	}
}

// stressIters scales the stress loops down on small hosts, where
// spinning locks over-subscribe.
func stressIters() int {
	if runtime.NumCPU() < 4 {
		return 2000
	}
	return 10000
}

// TestReorderableOverTicket: Reorderable works over any FIFO
// substrate, not only the MCS the rest of this file uses.
func TestReorderableOverTicket(t *testing.T) {
	r := NewReorderable(new(Ticket))
	var counter int64
	var wg sync.WaitGroup
	iters := stressIters() / 2
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if id%2 == 0 {
					r.LockImmediately()
				} else {
					r.LockReorder(1000)
				}
				counter++
				r.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if counter != int64(4*iters) {
		t.Fatalf("lost updates: %d", counter)
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
	m.Reorderable().MaxWindow = int64(5 * time.Millisecond)
	little := core.NewWorker(core.WorkerConfig{Class: core.Little})
	// Lock is free: immediate acquisition even for standby competitors.
	start := time.Now()
	m.Lock(little)
	m.Unlock(little)
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("uncontended little acquisition took %v", e)
	}
}

func TestASLMutexMutualExclusionMixedClasses(t *testing.T) {
	m := NewASLMutexDefault()
	m.Reorderable().MaxWindow = int64(time.Millisecond)
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

// busySpin burns roughly n iterations of CPU.
func busySpin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}
