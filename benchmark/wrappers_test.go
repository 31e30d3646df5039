package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/storage"
)

// capabilities lists which optional interfaces e satisfies.
func capabilities(e shardedkv.Engine) [4]bool {
	_, br := e.(batchRanger)
	_, sc := e.(unorderedScanner)
	_, sn := e.(storage.Snapshotter)
	_, cp := e.(storage.Compactor)
	return [4]bool{br, sc, sn, cp}
}

func TestTimedEngineForwardsExactlyTheInnerCapabilities(t *testing.T) {
	want := map[string][4]bool{
		"hashkv":   {true, true, false, false},
		"btree":    {false, false, false, false},
		"skiplist": {false, false, false, false},
		"lsm":      {false, false, true, true},
	}
	for _, spec := range shardedkv.AllEngines() {
		inner := spec.New(0)
		if got := capabilities(inner); got != want[spec.Name] {
			t.Fatalf("%s itself has capabilities %v, the test expects %v: update the wrapper types", spec.Name, got, want[spec.Name])
		}
		tr := &tracer{}
		wrapped, _, err := wrapEngine(inner, &timedLock{tr: tr}, tr)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := capabilities(wrapped); got != want[spec.Name] {
			t.Errorf("%s: wrapper has capabilities (BatchRange, Scan, Snapshotter, Compactor) = %v, the engine %v", spec.Name, got, want[spec.Name])
		}
	}
}

// halfEngine has BatchRange but not Scan: a capability set no wrapper
// type forwards.
type halfEngine struct{ shardedkv.Engine }

func (halfEngine) BatchRange([]shardedkv.RangeReq, func(int, uint64, []byte)) {}

func TestTimedEngineRefusesUnknownCapabilitySet(t *testing.T) {
	tr := &tracer{}
	_, _, err := wrapEngine(halfEngine{shardedkv.NewBTreeEngine()}, &timedLock{tr: tr}, tr)
	if err == nil || !strings.Contains(err.Error(), "capability set") {
		t.Fatalf("wrapping an engine with BatchRange alone: err = %v, want a refusal", err)
	}
}

func TestTimedEngineCountsUnderItsLockOnly(t *testing.T) {
	tr := newTracer(&workloads[0])
	cfg := shardedkv.Config{
		Shards:    2,
		NewLock:   tr.lockFactory(locks.FactoryASL()),
		NewEngine: tr.engineFactory(func(int) shardedkv.Engine { return shardedkv.NewHashEngine(16) }),
	}
	st, err := shardedkv.Open(cfg)
	if err != nil || tr.pairErr != nil {
		t.Fatal(err, tr.pairErr)
	}
	if len(tr.locks) != 2 || len(tr.engines) != 2 {
		t.Fatalf("registered %d locks and %d engines for 2 shards", len(tr.locks), len(tr.engines))
	}
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	if _, err := st.Put(w, 1, []byte("before the window")); err != nil {
		t.Fatal(err)
	}
	if s := tr.sums(); s.eng.ops() != 0 || s.lock.takes != [2]uint64{} {
		t.Fatalf("work outside the measured window was counted: %+v", s.eng)
	}
	tr.recording.Store(true)
	for k := uint64(0); k < 10; k++ {
		if _, err := st.Put(w, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		st.Get(w, k)
	}
	st.Range(w, 0, 100, func(uint64, []byte) bool { return true })
	tr.recording.Store(false)
	s := tr.sums()
	if s.eng.puts != 10 || s.eng.gets != 10 || s.eng.ranges != 2 || s.eng.pairs != 10 || s.eng.unheld != 0 {
		t.Errorf("engine sums %+v, want 10 puts, 10 gets, 2 shard scans emitting 10 pairs, nothing outside a lock", s.eng)
	}
	if s.lock.takes[core.Little] != 22 || s.lock.takes[core.Big] != 0 {
		t.Errorf("lock takes %v, want 22 by the little class", s.lock.takes)
	}
	if hold, eng := s.lock.holdNs[core.Little], s.lock.engineNs[core.Little]; eng <= 0 || hold < eng {
		t.Errorf("hold %d ns must cover engine %d ns", hold, eng)
	}
	// An engine reached without its lock (a broken pairing) must be seen.
	tr.recording.Store(true)
	tr.engines[0].Get(1)
	if tr.sums().eng.unheld != 1 {
		t.Error("an engine call with its paired lock free was not flagged")
	}
}

func TestPairingBreaksLoudly(t *testing.T) {
	tr := &tracer{}
	newLock := tr.lockFactory(locks.FactoryASL())
	newLock()
	newLock()
	if tr.pairErr == nil {
		t.Error("two locks in a row did not raise a pairing error")
	}
	tr = &tracer{}
	tr.engineFactory(func(int) shardedkv.Engine { return shardedkv.NewBTreeEngine() })(0)
	if tr.pairErr == nil {
		t.Error("an engine with no lock before it did not raise a pairing error")
	}
}

// TestTimedLockKeepsMutualExclusion hammers one timing lock from both
// classes with blocking and try acquires; run with -race, the unguarded
// counter is the detector. TryAcquire must fail while the lock is held
// and its result must be honoured.
func TestTimedLockKeepsMutualExclusion(t *testing.T) {
	tr := newTracer(&workloads[0])
	tr.recording.Store(true)
	l := tr.lockFactory(locks.FactoryASL())().(*timedLock)

	holder := core.NewWorker(core.WorkerConfig{Class: core.Big})
	l.Acquire(holder)
	if l.TryAcquire(core.NewWorker(core.WorkerConfig{Class: core.Little})) {
		t.Fatal("TryAcquire succeeded on a held lock")
	}
	l.Release(holder)
	if !l.TryAcquire(holder) {
		t.Fatal("TryAcquire failed on a free lock")
	}
	l.Release(holder)

	const workers, rounds = 4, 2000
	var inside atomic.Int32
	counter := 0 // guarded by l alone
	var tryWins atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: core.Class(i % 2)})
			for r := 0; r < rounds; r++ {
				if r%3 == 0 {
					if !l.TryAcquire(w) {
						continue
					}
					tryWins.Add(1)
				} else {
					l.Acquire(w)
				}
				if inside.Add(1) != 1 {
					t.Error("two holders inside the lock")
				}
				counter++
				inside.Add(-1)
				l.Release(w)
			}
		}()
	}
	wg.Wait()
	tries := uint64(workers * ((rounds + 2) / 3))
	blocking := uint64(workers*rounds) - tries
	if want := blocking + tryWins.Load(); uint64(counter) != want {
		t.Errorf("counter %d, want %d (one per successful acquire)", counter, want)
	}
	takes := l.st.takes[0] + l.st.takes[1]
	if takes != uint64(counter)+2 || l.tryFail.Load() != tries-tryWins.Load()+1 {
		t.Errorf("wrapper counted %d takes and %d failed tries; want %d and %d", takes, l.tryFail.Load(), counter+2, tries-tryWins.Load()+1)
	}
}
