package locks_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locks/locktest"
)

// TestClassProbeObservesHint drives one probe-wrapped lock of every
// factory family with one worker per class, alternating them as the
// server alternates a connection's per-class workers, and asserts the
// probe saw each acquisition under its worker's class — the contract
// the serving layer's class mapping rests on.
func TestClassProbeObservesHint(t *testing.T) {
	factories := map[string]locks.Factory{
		"asl":     locks.FactoryASL(),
		"mutex":   locks.FactorySyncMutex(),
		"mcs":     locks.FactoryMCS(),
		"pthread": locks.FactoryPthread(),
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			l := locktest.WithClassProbe(f())
			ws := [2]*core.Worker{
				core.Big:    core.NewWorker(core.WorkerConfig{Class: core.Big}),
				core.Little: core.NewWorker(core.WorkerConfig{Class: core.Little}),
			}
			for i := 0; i < 10; i++ {
				w := ws[i%2]
				l.Acquire(w)
				l.Release(w)
			}
			st := l.Stats()
			if st.BigAcquires != 5 || st.LittleAcquires != 5 {
				t.Fatalf("probe saw big=%d little=%d, want 5/5", st.BigAcquires, st.LittleAcquires)
			}
		})
	}
}

// TestClassProbeTryAcquire checks the win/lose accounting: a held lock
// fails the try (counted) and a free one succeeds under the observed
// class.
func TestClassProbeTryAcquire(t *testing.T) {
	l := locktest.WithClassProbe(locks.FactorySyncMutex()())
	wa := core.NewWorker(core.WorkerConfig{Class: core.Big})
	wb := core.NewWorker(core.WorkerConfig{Class: core.Little})

	l.Acquire(wa)
	if l.TryAcquire(wb) {
		t.Fatal("TryAcquire succeeded on a held lock")
	}
	l.Release(wa)
	if !l.TryAcquire(wb) {
		t.Fatal("TryAcquire failed on a free lock")
	}
	l.Release(wb)

	st := l.Stats()
	if st.TryFailed != 1 {
		t.Fatalf("TryFailed = %d, want 1", st.TryFailed)
	}
	if st.BigAcquires != 1 || st.LittleAcquires != 1 {
		t.Fatalf("acquires big=%d little=%d, want 1/1", st.BigAcquires, st.LittleAcquires)
	}
}
