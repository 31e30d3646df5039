package kvserver

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionInFlightBound hammers one gate from many goroutines
// and asserts the hard bound: never more than BulkPerShard holders at
// once. Run under -race this also exercises the gate's memory safety.
func TestAdmissionInFlightBound(t *testing.T) {
	const limit = 3
	a := newAdmission(AdmissionConfig{BulkPerShard: limit, BulkWaiters: 1 << 20}, 2)
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g, ok := a.enter(0)
				if !ok {
					t.Error("rejected despite effectively unbounded waiters")
					return
				}
				cur := inFlight.Add(1)
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				inFlight.Add(-1)
				a.exit(g)
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > limit {
		t.Fatalf("observed %d concurrent holders, bound is %d", m, limit)
	}
	st := a.stats()
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestAdmissionRejects checks the shedding path: with no waiting
// allowed, arrivals beyond the in-flight bound are rejected and
// counted.
func TestAdmissionRejects(t *testing.T) {
	a := newAdmission(AdmissionConfig{BulkPerShard: 1, BulkWaiters: -1}, 2)
	g, ok := a.enter(0)
	if !ok {
		t.Fatal("first entry rejected")
	}
	if _, ok := a.enter(0); ok {
		t.Fatal("second entry admitted past the bound with waiting disabled")
	}
	// A different shard's gate, and the global gate, are independent.
	for _, i := range []int{1, a.global()} {
		g2, ok := a.enter(i)
		if !ok {
			t.Fatalf("gate %d coupled to gate 0", i)
		}
		a.exit(g2)
	}
	a.exit(g)
	if _, ok := a.enter(0); !ok {
		t.Fatal("rejected after release")
	}
	st := a.stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestAdmissionWaits checks the passive-wait path: a second entrant
// within the waiter bound blocks until the first releases.
func TestAdmissionWaits(t *testing.T) {
	a := newAdmission(AdmissionConfig{BulkPerShard: 1, BulkWaiters: 4}, 2)
	g, _ := a.enter(0)
	entered := make(chan struct{})
	go func() {
		g2, ok := a.enter(0)
		if !ok {
			t.Error("waiter rejected within bound")
		} else {
			a.exit(g2)
		}
		close(entered)
	}()
	select {
	case <-entered:
		t.Fatal("second entrant did not wait for the slot")
	case <-time.After(20 * time.Millisecond):
	}
	a.exit(g)
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never admitted after release")
	}
	if st := a.stats(); st.Waited == 0 {
		t.Fatalf("Waited = 0 after a blocking admission: %+v", st)
	}
}

// TestAdmissionDisabled: a negative per-shard bound turns the gate
// off entirely.
func TestAdmissionDisabled(t *testing.T) {
	if a := newAdmission(AdmissionConfig{BulkPerShard: -1}, 2); a != nil {
		t.Fatal("negative BulkPerShard should disable the gate")
	}
}
