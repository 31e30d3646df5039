package shardedkv

import "sync/atomic"

// reqQueue is the per-shard request queue of the combining pipeline:
// Vyukov's intrusive MPSC queue, linked through request.next. Any number
// of producers push concurrently; pop is only ever called by the current
// combiner, i.e. under the shard lock, so consumers are serialised even
// though the combiner identity changes between drains.
//
// A push is one swap of head and one store linking the previous newest
// to the new one. Between the two, the chain is broken: pop sees it end
// early and returns nil until the link lands. The queue only ever holds
// requests whose owners are blocked on them, so it needs no capacity
// and a push never fails.
//
// The stub is a request that is never executed. It keeps the chain
// non-empty, so producers never see a nil head: when the consumer is
// about to hand out the newest request, it links the stub behind it
// first. A request is handed out only once a successor is linked behind
// it, so the consumer never reads a request's next after handing it out,
// and its owner may recycle and push it again at once.
type reqQueue struct {
	head atomic.Pointer[request] // newest; producers swap here
	_    [64]byte
	// n is pushed minus popped requests. A push counts before it links,
	// so a push in flight makes the queue read non-empty, which is the
	// conservative direction for the pipeline's drain loops.
	n    atomic.Int64
	_    [64]byte
	tail *request // oldest; the consumer's alone
	stub request
	_    [64]byte // producers store stub.next: keep the fields after the queue off its line
}

// init points both ends at the stub. The queue must not be copied after.
func (q *reqQueue) init() {
	q.head.Store(&q.stub)
	q.tail = &q.stub
}

// push appends r. r must not be in the queue.
func (q *reqQueue) push(r *request) {
	q.n.Add(1)
	r.next.Store(nil)
	q.link(r)
}

// link makes r the newest: r's next must already be nil.
func (q *reqQueue) link(r *request) {
	q.head.Swap(r).next.Store(r)
}

// pop removes the oldest request, or returns nil when the queue is
// empty or its oldest push has not finished linking. Must only be
// called by the current combiner (with the shard lock held).
func (q *reqQueue) pop() *request {
	tail, next := q.tail, q.tail.next.Load()
	if tail == &q.stub {
		if next == nil {
			return nil
		}
		q.tail, tail, next = next, next, next.next.Load()
	}
	if next == nil {
		if tail != q.head.Load() {
			// The oldest is not the newest: a producer has swapped head
			// but not yet linked behind tail.
			return nil
		}
		q.stub.next.Store(nil)
		q.link(&q.stub)
		if next = tail.next.Load(); next == nil {
			// A producer swapped in before the stub and is still
			// linking behind tail.
			return nil
		}
	}
	q.tail = next
	q.n.Add(-1)
	return tail
}

// Empty reports whether no request is pushed and not yet popped.
func (q *reqQueue) Empty() bool { return q.n.Load() == 0 }

// Len is the number of requests pushed and not yet popped.
func (q *reqQueue) Len() uint64 { return uint64(q.n.Load()) }
