package shardedkv

import (
	"sync/atomic"
)

// reqRing is the per-shard request queue of the combining pipeline: a
// bounded lock-free ring in the style of Vyukov's array queue, used
// here as an MPSC — any number of producers enqueue concurrently, and
// dequeue is only ever called by the current combiner, i.e. under the
// shard lock (so consumers are serialised even though the combiner
// identity changes between batches).
//
// Each slot carries a sequence number that encodes its state relative
// to the head/tail cursors: seq == pos means "free for the producer
// claiming position pos", seq == pos+1 means "published, readable by
// the consumer at position pos". Producers claim a position with a CAS
// on tail, write the request, then publish by advancing the slot's
// sequence — so a consumer can never observe a half-written slot (it
// sees the old sequence and treats the ring as momentarily empty).
//
// A full ring reports failure instead of blocking; the pipeline falls
// back to direct execution, which bounds memory and keeps enqueue
// wait-free for producers.
type reqRing struct {
	mask  uint64
	slots []ringSlot
	_     [64]byte
	tail  atomic.Uint64 // next position producers claim
	_     [64]byte
	head  atomic.Uint64 // next position the combiner consumes
	_     [64]byte
}

// ringSlot is one ring entry. req is a plain field: it is published by
// the seq store and read back only after the matching seq load, which
// order the accesses.
type ringSlot struct {
	seq atomic.Uint64
	req *request
}

// newReqRing builds a ring with the given capacity, rounded up to a
// power of two (minimum 2).
func newReqRing(capacity int) *reqRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &reqRing{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *reqRing) Cap() int { return len(r.slots) }

// enqueue publishes req; false means the ring is full.
func (r *reqRing) enqueue(req *request) bool {
	pos := r.tail.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.req = req
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
		case diff < 0:
			// The consumer has not yet freed this slot: the ring is
			// one full lap behind.
			return false
		default:
			// Another producer claimed pos; chase the tail.
			pos = r.tail.Load()
		}
	}
}

// dequeue pops the oldest published request, or nil when the ring is
// empty or its head slot is still being published. Must only be called
// by the current combiner (with the shard lock held).
func (r *reqRing) dequeue() *request {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return nil
	}
	req := slot.req
	slot.req = nil
	r.head.Store(pos + 1)
	// Free the slot for the producer one lap ahead.
	slot.seq.Store(pos + r.mask + 1)
	return req
}

// Empty reports whether the ring holds no claimed positions. A
// producer between its tail CAS and its publish makes Empty false,
// which is the conservative direction for the pipeline's drain loops.
func (r *reqRing) Empty() bool { return r.head.Load() == r.tail.Load() }

// Len approximates the number of in-flight requests.
func (r *reqRing) Len() uint64 {
	t, h := r.tail.Load(), r.head.Load()
	if t < h {
		return 0
	}
	return t - h
}

// tailPos exposes the claim cursor for execDirect's "everything
// enqueued before now" cut-off.
func (r *reqRing) tailPos() uint64 { return r.tail.Load() }
