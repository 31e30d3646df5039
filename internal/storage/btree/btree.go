// Package btree implements an in-memory B+ tree with linked leaves:
// the ordered-map substrate of shardedkv's btree engine. Keys and
// values are uint64/[]byte; the tree itself is unsynchronised — the
// shard lock serialises access.
//
// Nodes hold no pointers. Leaves and interior nodes are fixed-size
// structs with their keys, spans and child refs inline, kept in
// chunked slabs and addressed by index, so a GC cycle does not scan
// them. Put copies each value into its leaf's arena: one append-only
// []byte per leaf, held in a per-tree table indexed by leaf and
// addressed by a pointer-free span per key. A live tree is one heap
// object per leaf (its arena) plus a few slab chunks. Get and Range
// hand out slices of the arena with cap == len, and bytes once handed
// out are never written again: an overwrite or delete only moves a
// span, and a full arena is replaced by a compacted copy while the old
// one stays valid for any reader still holding a slice of it. Values
// above maxInline keep an allocation of their own in a per-tree side
// table, so no compaction copies more than about 100 KiB.
package btree

// degree is the maximum number of keys per node; chosen so nodes span
// a few cache lines, like a page-based tree's fanout scaled to memory.
const degree = 32

// maxInline is the largest value a leaf copies into its arena. With at
// most degree+1 keys per leaf, a compaction copies at most ~100 KiB.
const maxInline = 3 << 10

// span locates one value in its leaf's arena. A span longer than
// maxInline marks a value held in the tree's side table instead.
type span struct{ off, n uint32 }

func (s span) large() bool { return s.n > maxInline }

// leaf is a leaf node: keys[:n] ascending, spans[i] locating keys[i]'s
// value. A node holds degree+1 keys only between an insert and the
// split it triggers. next is the right sibling's index, 0 for none:
// leaf 0 is the first leaf, which only ever keeps the low half of a
// split, so it is never a right sibling.
type leaf struct {
	n     int32
	next  int32
	keys  [degree + 1]uint64
	spans [degree + 1]span
}

// inner is an interior node: kids[i] covers the keys below keys[i],
// kids[n] the rest. Kids index the leaf slab at height 1 and the inner
// slab above it.
type inner struct {
	n    int32
	keys [degree + 1]uint64
	kids [degree + 2]int32
}

// A slab chunk holds 64 nodes: a small tree (one per shard) costs a
// ~34 KiB leaf chunk, and a chunk is a single GC object however many
// leaves it holds.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// slab stores nodes in fixed-size chunks addressed by index. A chunk
// never moves once allocated, so a *T stays valid across later allocs.
type slab[T any] struct {
	chunks []*[chunkLen]T
	n      int32
}

func (s *slab[T]) at(i int32) *T { return &s.chunks[i>>chunkBits][i&(chunkLen-1)] }

func (s *slab[T]) alloc() (int32, *T) {
	i := s.n
	if int(i>>chunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	s.n++
	return i, s.at(i)
}

// Tree is a B+ tree. The zero value is not usable; call New.
type Tree struct {
	leaves slab[leaf]
	inners slab[inner]
	data   [][]byte          // data[i] is leaf i's arena
	large  map[uint64][]byte // values above maxInline, by key
	root   int32             // a leaf index when height is 0, else an inner index
	height int               // interior levels above the leaves
	size   int
}

// New returns an empty tree.
func New() *Tree {
	t := &Tree{large: map[uint64][]byte{}}
	t.newLeaf()
	return t
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

func (t *Tree) newLeaf() (int32, *leaf) {
	t.data = append(t.data, nil)
	return t.leaves.alloc()
}

// search returns the index of the first key >= k.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns which kid of n covers k.
func (n *inner) child(k uint64) int {
	i := search(n.keys[:n.n], k)
	if i < int(n.n) && n.keys[i] == k {
		i++ // interior separator equal to k: the key lives right
	}
	return i
}

// leaf returns the index of the leaf that holds k, if any leaf does.
func (t *Tree) leaf(k uint64) int32 {
	ref := t.root
	for range t.height {
		n := t.inners.at(ref)
		ref = n.kids[n.child(k)]
	}
	return ref
}

// find returns k's leaf and its position there, and whether k is
// stored.
func (t *Tree) find(k uint64) (int32, *leaf, int, bool) {
	li := t.leaf(k)
	l := t.leaves.at(li)
	i := search(l.keys[:l.n], k)
	return li, l, i, i < int(l.n) && l.keys[i] == k
}

// value returns the value at l.keys[i], capacity clipped to its length
// so an append by the holder never reaches the arena.
func (t *Tree) value(li int32, l *leaf, i int) []byte {
	s := l.spans[i]
	switch {
	case s.n == 0:
		return nil
	case s.large():
		return t.large[l.keys[i]]
	}
	return t.data[li][s.off : s.off+s.n : s.off+s.n]
}

// set stores a copy of v as l.keys[i]'s value, appending it to the
// arena and compacting the arena first when v does not fit.
func (t *Tree) set(li int32, l *leaf, i int, v []byte) {
	if l.spans[i].large() {
		delete(t.large, l.keys[i])
	}
	l.spans[i] = span{}
	if len(v) > maxInline {
		t.large[l.keys[i]] = append(make([]byte, 0, len(v)), v...)
		l.spans[i] = span{n: uint32(len(v))}
		return
	}
	d := t.data[li]
	if len(d)+len(v) > cap(d) {
		d = t.compact(li, l, len(v))
	}
	l.spans[i] = span{uint32(len(d)), uint32(len(v))}
	t.data[li] = append(d, v...)
}

// compact replaces leaf li's arena with a fresh one sized twice the
// live bytes plus extra, holding only the live values, and returns it.
// The old arena is left untouched: readers may still hold slices of it.
func (t *Tree) compact(li int32, l *leaf, extra int) []byte {
	live := extra
	for _, s := range l.spans[:l.n] {
		if !s.large() {
			live += int(s.n)
		}
	}
	old, d := t.data[li], make([]byte, 0, 2*live)
	for i, s := range l.spans[:l.n] {
		if !s.large() {
			l.spans[i].off = uint32(len(d))
			d = append(d, old[s.off:s.off+s.n]...)
		}
	}
	t.data[li] = d
	return d
}

// Get returns the value for k and whether it exists. The value is
// never written again; it stays valid after later mutations.
func (t *Tree) Get(k uint64) ([]byte, bool) {
	li, l, i, ok := t.find(k)
	if !ok {
		return nil, false
	}
	return t.value(li, l, i), true
}

// Put inserts or replaces the value for k with a copy of v; the tree
// does not retain v. It returns true if the key was newly inserted.
func (t *Tree) Put(k uint64, v []byte) bool {
	inserted, sep, right := t.insert(t.root, t.height, k, v)
	if right != 0 {
		ri, r := t.inners.alloc()
		r.n, r.keys[0], r.kids[0], r.kids[1] = 1, sep, t.root, right
		t.root = ri
		t.height++
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k/v under node ref at height h, returning whether a new
// key was added plus, if the node overflowed, the separator and the
// new right sibling. right is 0 when nothing split: index 0 of either
// slab is its first node, which only ever keeps the low half of a
// split, so it is never a new sibling.
func (t *Tree) insert(ref int32, h int, k uint64, v []byte) (inserted bool, sep uint64, right int32) {
	if h == 0 {
		return t.insertLeaf(ref, k, v)
	}
	n := t.inners.at(ref)
	i := n.child(k)
	inserted, sep, right = t.insert(n.kids[i], h-1, k, v)
	if right == 0 {
		return inserted, 0, 0
	}
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.kids[i+2:n.n+2], n.kids[i+1:n.n+1])
	n.keys[i], n.kids[i+1] = sep, right
	n.n++
	if n.n <= degree {
		return inserted, 0, 0
	}
	sep, right = t.splitInner(n)
	return inserted, sep, right
}

// insertLeaf is insert at height 0.
func (t *Tree) insertLeaf(li int32, k uint64, v []byte) (bool, uint64, int32) {
	l := t.leaves.at(li)
	i := search(l.keys[:l.n], k)
	if i < int(l.n) && l.keys[i] == k {
		t.set(li, l, i, v)
		return false, 0, 0
	}
	copy(l.keys[i+1:l.n+1], l.keys[i:l.n])
	copy(l.spans[i+1:l.n+1], l.spans[i:l.n])
	l.keys[i], l.spans[i] = k, span{}
	l.n++
	t.set(li, l, i, v)
	if l.n <= degree {
		return true, 0, 0
	}
	sep, right := t.splitLeaf(li, l)
	return true, sep, right
}

// splitLeaf splits a full leaf, returning the separator and the new
// right sibling; l keeps the low half and its arena, the sibling gets
// a compacted arena of its own. Large values stay put: the side table
// is keyed by key, not by leaf.
func (t *Tree) splitLeaf(li int32, l *leaf) (uint64, int32) {
	ri, r := t.newLeaf()
	mid := l.n / 2
	r.n = int32(copy(r.keys[:], l.keys[mid:l.n]))
	copy(r.spans[:], l.spans[mid:l.n])
	r.next, l.next = l.next, ri
	l.n = mid
	t.data[ri] = t.data[li]
	t.compact(ri, r, 0)
	return r.keys[0], ri
}

// splitInner splits a full interior node.
func (t *Tree) splitInner(n *inner) (uint64, int32) {
	ri, r := t.inners.alloc()
	mid := n.n / 2
	r.n = int32(copy(r.keys[:], n.keys[mid+1:n.n]))
	copy(r.kids[:], n.kids[mid+1:n.n+1])
	n.n = mid
	return n.keys[mid], ri
}

// Delete removes k, returning whether it existed. Underflow is handled
// lazily (nodes may become sparse but never invalid), which matches
// the behaviour of store-level trees that defer compaction. The value's
// bytes stay in the arena until the leaf next compacts.
func (t *Tree) Delete(k uint64) bool {
	_, l, i, ok := t.find(k)
	if !ok {
		return false
	}
	if l.spans[i].large() {
		delete(t.large, k)
	}
	copy(l.keys[i:l.n], l.keys[i+1:l.n])
	copy(l.spans[i:l.n], l.spans[i+1:l.n])
	l.n--
	t.size--
	return true
}

// Range calls fn for each key in [lo, hi] in ascending order until fn
// returns false. Values are handed out as Get hands them out.
func (t *Tree) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	li := t.leaf(lo)
	for {
		l := t.leaves.at(li)
		for i, k := range l.keys[:l.n] {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, t.value(li, l, i)) {
				return
			}
		}
		if l.next == 0 {
			return
		}
		li = l.next
	}
}
