package shardedkv

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// popAll pops want in order and then expects the queue to read empty.
func popAll(t *testing.T, q *reqQueue, want ...*request) {
	t.Helper()
	for i, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop %d: got %p, want %p (key %d)", i, got, w, w.key)
		}
	}
	if got := q.pop(); got != nil {
		t.Fatalf("pop on a drained queue: got %p (stub %p)", got, &q.stub)
	}
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("drained queue: Empty %v, Len %d", q.Empty(), q.Len())
	}
}

// TestRingFIFO checks single-threaded order and emptiness. It keeps the
// name of the bounded ring the queue replaced; the queue has no capacity,
// so pushes past the ring's old 256 slots must all succeed.
func TestRingFIFO(t *testing.T) {
	var q reqQueue
	q.init()
	popAll(t, &q)
	reqs := make([]*request, 300)
	for i := range reqs {
		reqs[i] = &request{key: uint64(i)}
		q.push(reqs[i])
		if q.Empty() || q.Len() != uint64(i+1) {
			t.Fatalf("after push %d: Empty %v, Len %d", i, q.Empty(), q.Len())
		}
	}
	popAll(t, &q, reqs...)
}

// TestRingWrapLaps drives the stub through its transitions, empty → one
// → empty → many, for several laps with the same requests, as the
// request pool reuses them: the queue's counterpart of the ring's
// cursor laps.
func TestRingWrapLaps(t *testing.T) {
	var q reqQueue
	q.init()
	reqs := make([]*request, 8)
	for i := range reqs {
		reqs[i] = &request{key: uint64(i)}
	}
	for lap := 0; lap < 3; lap++ {
		popAll(t, &q)
		q.push(reqs[0])
		if q.Empty() || q.Len() != 1 {
			t.Fatalf("lap %d: one pushed: Empty %v, Len %d", lap, q.Empty(), q.Len())
		}
		popAll(t, &q, reqs[0])
		for _, r := range reqs {
			q.push(r)
		}
		if q.Len() != uint64(len(reqs)) {
			t.Fatalf("lap %d: Len %d, want %d", lap, q.Len(), len(reqs))
		}
		popAll(t, &q, reqs...)
	}
}

// TestQueueStalledProducer stops a producer between its swap and its
// link: the request before it is not handed out, repeated pops see an
// empty queue, and once the link lands both come out in order and
// nothing else does.
func TestQueueStalledProducer(t *testing.T) {
	var q reqQueue
	q.init()
	a, b, c := &request{key: 1}, &request{key: 2}, &request{key: 3}
	q.push(a)
	// b's push, up to its link.
	q.n.Add(1)
	b.next.Store(nil)
	prev := q.head.Swap(b)
	for i := 0; i < 3; i++ {
		if got := q.pop(); got != nil {
			t.Fatalf("pop %d during the stall: got %p, want nil", i, got)
		}
	}
	if q.Empty() {
		t.Fatal("Empty with two requests pushed")
	}
	prev.next.Store(b)
	popAll(t, &q, a, b)
	q.push(c)
	popAll(t, &q, c)
}

// TestQueueConcurrentProducers runs P producers against one consumer
// (the MPSC contract) under -race. The consumer pushes every producer
// request it pops straight back as a request of its own stream, the
// reuse the request pool allows as soon as an owner sees completion.
// Every stream's requests must arrive once each, in push order.
func TestQueueConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
		mine      = producers // the consumer's stream
	)
	var q reqQueue
	q.init()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				q.push(&request{key: uint64(p)<<32 | uint64(i)})
			}
		}()
	}
	seen := make([]int, producers+1)
	repushed := 0
	deadline := time.Now().Add(30 * time.Second)
	for total := 0; total < 2*producers*perProd; {
		r := q.pop()
		if r == nil {
			if time.Now().After(deadline) {
				t.Fatalf("stuck after %d of %d pops, Len %d: a request was lost", total, 2*producers*perProd, q.Len())
			}
			runtime.Gosched()
			continue
		}
		if r == &q.stub {
			t.Fatal("pop handed out the stub")
		}
		s, i := int(r.key>>32), int(r.key&0xffffffff)
		if s > mine || i != seen[s] {
			t.Fatalf("stream %d: got seq %d, want %d (lost, duplicated or reordered)", s, i, seen[s])
		}
		seen[s]++
		total++
		if s != mine {
			r.key = uint64(mine)<<32 | uint64(repushed)
			repushed++
			q.push(r)
		}
	}
	wg.Wait()
	if r := q.pop(); r != nil || !q.Empty() {
		t.Fatalf("after every request: pop %p, Empty %v", r, q.Empty())
	}
}
