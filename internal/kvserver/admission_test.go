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
	a := newAdmission(AdmissionConfig{BulkPerShard: limit}, 2)
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g := a.enter(0)
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
	if st.InFlight != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestAdmissionWaits checks the passive-wait path: a second entrant
// past the in-flight bound blocks until the first releases, while a
// different shard's gate and the global gate stay independent.
func TestAdmissionWaits(t *testing.T) {
	a := newAdmission(AdmissionConfig{BulkPerShard: 1}, 2)
	g := a.enter(0)
	for _, i := range []int{1, a.global()} {
		a.exit(a.enter(i))
	}
	if st := a.stats(); st.Waited != 0 {
		t.Fatalf("gates 1 and global waited on gate 0: %+v", st)
	}
	entered := make(chan struct{})
	go func() {
		a.exit(a.enter(0))
		close(entered)
	}()
	for deadline := time.Now().Add(2 * time.Second); a.stats().Waited == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second entrant never blocked on the held slot")
		}
		time.Sleep(time.Millisecond)
	}
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
	if st := a.stats(); st.Waited != 1 || st.InFlight != 0 {
		t.Fatalf("after one blocking admission: %+v, want Waited 1, InFlight 0", st)
	}
}

// TestAdmissionDisabled: a negative per-shard bound turns the gate
// off entirely.
func TestAdmissionDisabled(t *testing.T) {
	if a := newAdmission(AdmissionConfig{BulkPerShard: -1}, 2); a != nil {
		t.Fatal("negative BulkPerShard should disable the gate")
	}
}
