// Package hashkv is a chained hash table partitioned into fixed slots,
// laid out like Kyoto Cabinet's hash DB (paper Table 1: a slot-level
// lock per partition): the storage substrate of shardedkv's hashkv
// engine, which uses one growing slot per shard. The table itself is
// unsynchronised; the caller locks the slot that owns a key.
package hashkv

import (
	"sort"

	"repro/internal/prng"
)

// entry is one chained key/value pair.
type entry struct {
	key  uint64
	val  []byte
	next *entry
}

// maxLoad is the average chain length that triggers bucket doubling:
// past it, lookups pay chain walks instead of hash spread.
const maxLoad = 4

// Slot is one independently lockable partition. On growable tables
// (NewGrowing) its bucket array doubles when the load factor passes
// maxLoad, so chains stay O(1) on average however many keys the slot
// absorbs.
type Slot struct {
	buckets []*entry
	size    int
}

// grow doubles the bucket array and rehashes every chained entry. The
// caller holds the slot lock (the same contract as Put), so the relink
// is private to this slot; entry nodes are reused, not reallocated.
func (s *Slot) grow() {
	old := s.buckets
	s.buckets = make([]*entry, 2*len(old))
	for _, e := range old {
		for e != nil {
			next := e.next
			b := bucketIndex(e.key, len(s.buckets))
			e.next = s.buckets[b]
			s.buckets[b] = e
			e = next
		}
	}
}

// Table is a fixed-slot hash KV store.
type Table struct {
	slots    []Slot
	growable bool
}

// New builds a table with the given slot count and per-slot bucket
// count. Kyoto Cabinet's hash DB similarly divides its bucket array
// into lockable regions; like Kyoto's, the bucket count is fixed for
// life. Use NewGrowing where chains must stay bounded.
func New(slots, bucketsPerSlot int) *Table {
	t := &Table{slots: make([]Slot, slots)}
	for i := range t.slots {
		t.slots[i].buckets = make([]*entry, bucketsPerSlot)
	}
	return t
}

// NewGrowing builds a table whose slots double their bucket arrays
// once average chain length passes maxLoad (the serving-layer choice:
// bounded chains at the price of an occasional in-lock rehash).
func NewGrowing(slots, bucketsPerSlot int) *Table {
	t := New(slots, bucketsPerSlot)
	t.growable = true
	return t
}

// NumSlots returns the slot count.
func (t *Table) NumSlots() int { return len(t.slots) }

// SlotOf maps a key to its slot index; the engine locks this slot.
func (t *Table) SlotOf(k uint64) int {
	return int(mix(k) % uint64(len(t.slots)))
}

// mix is a strong 64-bit finalizer (splitmix64's, shared via prng) so
// adjacent keys spread across slots.
func mix(x uint64) uint64 { return prng.Mix64(x) }

// bucketIndex maps a key into an n-bucket array (growth recomputes it
// with the new n).
func bucketIndex(k uint64, n int) int {
	return int(mix(k^0xabcdef) % uint64(n))
}

func (t *Table) slotAndBucket(k uint64) (*Slot, int) {
	s := &t.slots[t.SlotOf(k)]
	return s, bucketIndex(k, len(s.buckets))
}

// Put stores k=v. The caller must hold k's slot lock. Returns true on
// insert, false on replace.
func (t *Table) Put(k uint64, v []byte) bool {
	s, b := t.slotAndBucket(k)
	for e := s.buckets[b]; e != nil; e = e.next {
		if e.key == k {
			e.val = v
			return false
		}
	}
	s.buckets[b] = &entry{key: k, val: v, next: s.buckets[b]}
	s.size++
	if t.growable && s.size > maxLoad*len(s.buckets) {
		s.grow()
	}
	return true
}

// Get reads k. The caller must hold k's slot lock.
func (t *Table) Get(k uint64) ([]byte, bool) {
	s, b := t.slotAndBucket(k)
	for e := s.buckets[b]; e != nil; e = e.next {
		if e.key == k {
			return e.val, true
		}
	}
	return nil, false
}

// Delete removes k. The caller must hold k's slot lock.
func (t *Table) Delete(k uint64) bool {
	s, b := t.slotAndBucket(k)
	for p := &s.buckets[b]; *p != nil; p = &(*p).next {
		if (*p).key == k {
			*p = (*p).next
			s.size--
			return true
		}
	}
	return false
}

// Range calls fn for each key in [lo, hi] in ascending order until fn
// returns false. The table is unordered, so Range collects the
// matching pairs from every chain and sorts them — O(n) walk plus
// O(m log m) in the match count m. Callers must hold all slot locks,
// as with Len.
func (t *Table) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	type kv struct {
		k uint64
		v []byte
	}
	var out []kv
	for si := range t.slots {
		s := &t.slots[si]
		for _, e := range s.buckets {
			for ; e != nil; e = e.next {
				if e.key >= lo && e.key <= hi {
					out = append(out, kv{e.key, e.val})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	for _, p := range out {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Scan visits every entry in chain order — unordered — until fn
// returns false: the raw single walk batched range serving builds on
// (Range is the ordered flavour). Callers must hold all slot locks.
func (t *Table) Scan(fn func(k uint64, v []byte) bool) {
	for si := range t.slots {
		s := &t.slots[si]
		for _, e := range s.buckets {
			for ; e != nil; e = e.next {
				if !fn(e.key, e.val) {
					return
				}
			}
		}
	}
}

// NumBuckets returns slot i's current bucket count (dynamic once
// growth kicks in; tests assert on it).
func (t *Table) NumBuckets(slot int) int { return len(t.slots[slot].buckets) }

// Len sums all slot sizes; callers must hold all slot locks (or accept
// an approximate answer), as with Kyoto's count method.
func (t *Table) Len() int {
	n := 0
	for i := range t.slots {
		n += t.slots[i].size
	}
	return n
}
