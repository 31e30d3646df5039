// Package skiplist implements a deterministic-height skiplist keyed by
// uint64: the memtable of internal/storage/lsm and, on its own,
// shardedkv's skiplist engine. Heights are drawn from a per-list seeded
// PRNG, so a given insertion sequence always builds the same structure
// (the repository-wide reproducibility rule). The list itself is
// unsynchronised; the shard lock serialises access.
package skiplist

import (
	"repro/internal/prng"
)

const maxHeight = 16

type node struct {
	key   uint64
	value []byte
	next  [maxHeight]*node
	h     int
}

// List is a skiplist. Use New.
type List struct {
	head   *node
	height int
	size   int
	rng    *prng.SplitMix64
	bytes  int
}

// New returns an empty list whose tower heights derive from seed.
func New(seed uint64) *List {
	return &List{
		head:   &node{h: maxHeight},
		height: 1,
		rng:    prng.NewSplitMix64(seed),
	}
}

// Len returns the number of keys.
func (l *List) Len() int { return l.size }

// Bytes returns the approximate payload size (memtable flush trigger).
func (l *List) Bytes() int { return l.bytes }

// randomHeight draws a tower height with P(h) = 2^-h.
func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Uint64()&1 == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual locates the first node with key >= k and fills
// prev with the rightmost node before it on every level.
func (l *List) findGreaterOrEqual(k uint64, prev *[maxHeight]*node) *node {
	x := l.head
	for level := l.height - 1; level >= 0; level-- {
		for x.next[level] != nil && x.next[level].key < k {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Put inserts or replaces k. Returns true when newly inserted.
func (l *List) Put(k uint64, v []byte) bool {
	_, existed := l.PutPrev(k, v)
	return !existed
}

// PutPrev inserts or replaces k, returning the value it displaced
// (nil, false when k was absent): the prior state in the same descent
// the write needs anyway, for callers doing their own liveness
// accounting (the LSM's memtable).
func (l *List) PutPrev(k uint64, v []byte) ([]byte, bool) {
	var prev [maxHeight]*node
	n := l.findGreaterOrEqual(k, &prev)
	if n != nil && n.key == k {
		old := n.value
		l.bytes += len(v) - len(old)
		n.value = v
		return old, true
	}
	h := l.randomHeight()
	if h > l.height {
		for level := l.height; level < h; level++ {
			prev[level] = l.head
		}
		l.height = h
	}
	nn := &node{key: k, value: v, h: h}
	for level := 0; level < h; level++ {
		nn.next[level] = prev[level].next[level]
		prev[level].next[level] = nn
	}
	l.size++
	l.bytes += len(v) + 8
	return nil, false
}

// Get returns the value for k.
func (l *List) Get(k uint64) ([]byte, bool) {
	n := l.findGreaterOrEqual(k, nil)
	if n != nil && n.key == k {
		return n.value, true
	}
	return nil, false
}

// Delete removes k. Returns whether it existed.
func (l *List) Delete(k uint64) bool {
	var prev [maxHeight]*node
	n := l.findGreaterOrEqual(k, &prev)
	if n == nil || n.key != k {
		return false
	}
	for level := 0; level < n.h; level++ {
		if prev[level].next[level] == n {
			prev[level].next[level] = n.next[level]
		}
	}
	l.size--
	l.bytes -= len(n.value) + 8
	return true
}

// Iterator walks the list in ascending key order from a Seek position,
// LevelDB-memtable style. Mutating the list invalidates iterators; the
// LSM layer only advances one under the same lock that guards writes.
type Iterator struct{ n *node }

// Seek returns an iterator positioned at the first key >= k.
func (l *List) Seek(k uint64) Iterator {
	return Iterator{n: l.findGreaterOrEqual(k, nil)}
}

// Valid reports whether the iterator is positioned on an entry.
func (it Iterator) Valid() bool { return it.n != nil }

// Key returns the current key; the iterator must be Valid.
func (it Iterator) Key() uint64 { return it.n.key }

// Value returns the current value; the iterator must be Valid.
func (it Iterator) Value() []byte { return it.n.value }

// Next advances to the following key.
func (it *Iterator) Next() { it.n = it.n.next[0] }

// Range visits keys in [lo, hi] in order until fn returns false.
func (l *List) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	n := l.findGreaterOrEqual(lo, nil)
	for n != nil && n.key <= hi {
		if !fn(n.key, n.value) {
			return
		}
		n = n.next[0]
	}
}

// Scan visits every key in order.
func (l *List) Scan(fn func(k uint64, v []byte) bool) {
	l.Range(0, ^uint64(0), fn)
}
