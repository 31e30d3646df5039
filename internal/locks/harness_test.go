package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/prng"
)

// This file is the shared lock torture harness: one parameterized
// mutual-exclusion + progress + TryAcquire-consistency checker applied
// uniformly to every lock family in the package (and to the wrapper
// stacks the store actually deploys). Run with -race: the intentionally
// non-atomic shared counter turns any exclusion bug into both a lost
// update and a detector hit.

// harnessFamily is one lock family under test.
type harnessFamily struct {
	name string
	f    Factory
}

// harnessFamilies enumerates every family that can try. Every family's
// TryAcquire succeeds iff the lock was free. MCSParkOn cannot try: it is
// FissileOn's queue, so the fissile row contends on it, and it runs alone
// in TestMCSFIFOOrder and on virtual time in internal/simlock.
func harnessFamilies() []harnessFamily {
	return []harnessFamily{
		{"plain", FactorySyncMutex()},
		{"pthread", FactoryPthread()},
		{"mcs", FactoryMCS()},
		{"fissile", func() WLock { return Wrap(new(wallFissile)) }},
		{"asl", FactoryASL()},
	}
}

// tortureLock is the core checker. Workers alternate core classes and
// split across three acquisition styles (spin-on-try, blocking,
// try-then-block) with randomized hold and think times; the critical
// section increments a deliberately non-atomic counter and an
// occupancy flag. Accounting is exact: each worker performs exactly
// `rounds` critical sections, so counter must equal workers*rounds —
// which doubles as the progress/fairness check, since a starved
// worker hangs the run instead of finishing short.
func tortureLock(t *testing.T, f Factory, workers, rounds int) {
	t.Helper()
	l := f()
	var (
		counter  int64 // protected by l, intentionally non-atomic
		inside   atomic.Int32
		overlaps atomic.Int32
		sink     atomic.Uint64
	)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*0x9e3779b9 + 7)
			var local uint64
			for r := 0; r < rounds; r++ {
				switch wi % 3 {
				case 0:
					// Spin-on-try competitor. Queue-based locks fail
					// the try whenever waiters are queued, so yield
					// between tries.
					for !l.TryAcquire(w) {
						runtime.Gosched()
					}
				case 1:
					l.Acquire(w)
				default:
					if !l.TryAcquire(w) {
						l.Acquire(w)
					}
				}
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				counter++
				for h := rng.Uint64() % 8; h > 0; h-- { // randomized hold
					local += h
				}
				inside.Add(-1)
				l.Release(w)
				if rng.Uint64()%16 == 0 { // randomized think
					runtime.Gosched()
				}
			}
			sink.Add(local)
		}(wi)
	}
	wg.Wait()
	if overlaps.Load() != 0 {
		t.Fatalf("%d overlapping critical sections", overlaps.Load())
	}
	if counter != int64(workers*rounds) {
		t.Fatalf("lost updates: counter = %d, want %d", counter, workers*rounds)
	}
	// The lock must still be usable through the plain path.
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	l.Acquire(w)
	l.Release(w)
}

// tortureSize picks worker/round counts proportionate to the host and
// the -short budget.
func tortureSize(t *testing.T) (workers, rounds int) {
	workers, rounds = 8, 2500
	if testing.Short() {
		rounds = 500
	}
	if runtime.NumCPU() < 4 {
		// Spin locks on a starved host make progress only via
		// scheduler yields; keep the stress proportionate.
		workers, rounds = 4, 800
	}
	return workers, rounds
}

// TestTortureMutualExclusion runs the full checker over every family.
func TestTortureMutualExclusion(t *testing.T) {
	workers, rounds := tortureSize(t)
	for _, fam := range harnessFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			tortureLock(t, fam.f, workers, rounds)
		})
	}
}

// TestTortureTryConsistency pins the TryAcquire contract for every
// family and both worker classes: a try on a fresh lock wins, a try
// while the lock is held fails without blocking, a failed try leaves
// the lock intact, and a released lock is acquirable again.
func TestTortureTryConsistency(t *testing.T) {
	for _, fam := range harnessFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			for _, class := range []core.Class{core.Big, core.Little} {
				l := fam.f()
				w := core.NewWorker(core.WorkerConfig{Class: class})
				other := core.NewWorker(core.WorkerConfig{Class: core.Big})
				if !l.TryAcquire(w) {
					t.Fatalf("class %v: TryAcquire on a fresh lock failed", class)
				}
				if l.TryAcquire(other) {
					t.Fatalf("class %v: TryAcquire succeeded while held", class)
				}
				l.Release(w)
				if !l.TryAcquire(other) {
					t.Fatalf("class %v: TryAcquire after Release failed", class)
				}
				if l.TryAcquire(w) {
					t.Fatalf("class %v: second TryAcquire succeeded while held", class)
				}
				l.Release(other)
				// Usable through the blocking path afterwards.
				l.Acquire(w)
				l.Release(w)
			}
		})
	}
}

// TestTortureQuick is the property form: arbitrary small worker/round
// counts over a randomly picked family must keep exact accounting.
func TestTortureQuick(t *testing.T) {
	fams := harnessFamilies()
	f := func(pick, workers uint8, rounds uint16) bool {
		fam := fams[int(pick)%len(fams)]
		w := int(workers%4) + 1
		n := int(rounds%300) + 1
		l := fam.f()
		var counter int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wk := core.NewWorker(core.WorkerConfig{Class: core.Class(i % 2)})
				for j := 0; j < n; j++ {
					if i%2 == 0 {
						for !l.TryAcquire(wk) {
							runtime.Gosched()
						}
					} else {
						l.Acquire(wk)
					}
					counter++
					l.Release(wk)
				}
			}(i)
		}
		wg.Wait()
		return counter == int64(w*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
