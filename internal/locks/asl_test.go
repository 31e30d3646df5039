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

func TestASLMutexBigUsesImmediatePath(t *testing.T) {
	var m ASLMutex
	big := core.NewWorker(core.WorkerConfig{Class: core.Big})
	m.Acquire(big)
	if m.TryAcquire(big) {
		t.Fatal("TryAcquire must fail while held")
	}
	m.Release(big)
}

func TestASLMutexLittleOutsideEpochUsesMaxWindow(t *testing.T) {
	var m ASLMutex
	little := core.NewWorker(core.WorkerConfig{Class: core.Little})
	// Lock is free: immediate acquisition even for standby competitors.
	start := time.Now()
	m.Acquire(little)
	m.Release(little)
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("uncontended little acquisition took %v", e)
	}
}

func TestASLMutexMutualExclusionMixedClasses(t *testing.T) {
	var m ASLMutex
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
				m.Acquire(worker)
				counter++
				m.Release(worker)
				worker.EpochEnd(0, int64(time.Millisecond))
			}
		}(class)
	}
	wg.Wait()
	if counter != int64(8*iters) {
		t.Fatalf("lost updates: %d", counter)
	}
}

func TestASLFeedbackConvergesUnderContention(t *testing.T) {
	// With a tight SLO and heavy big-core pressure, the little worker's
	// window must shrink from its initial value (violations) and the
	// little worker must keep acquiring (no starvation).
	var m ASLMutex
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
				m.Acquire(worker)
				busySpin(2000)
				m.Release(worker)
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
			m.Acquire(little)
			acquired.Add(1)
			m.Release(little)
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
