// Package btree implements an in-memory B+ tree with linked leaves:
// the ordered-map substrate of shardedkv's btree engine. Keys and
// values are uint64/[]byte; the tree itself is unsynchronised — the
// shard lock serialises access.
//
// Put copies each value into its leaf's arena: one append-only []byte
// per leaf, addressed by a pointer-free span per key, so a GC cycle
// marks a handful of objects per leaf instead of one per stored value.
// Get and Range hand out slices of the arena with cap == len, and bytes
// once handed out are never written again: an overwrite or delete only
// moves a span, and a full arena is replaced by a compacted copy while
// the old one stays valid for any reader still holding a slice of it.
// Values above maxInline keep an allocation of their own, so no
// compaction copies more than about 100 KiB.
package btree

// degree is the maximum number of keys per node; chosen so nodes span
// a few cache lines, like a page-based tree's fanout scaled to memory.
const degree = 32

// maxInline is the largest value a leaf copies into its arena. With at
// most degree+1 keys per leaf, a compaction copies at most ~100 KiB.
const maxInline = 3 << 10

// span locates one value in its leaf's arena.
type span struct{ off, n uint32 }

type node struct {
	keys     []uint64
	children []*node // nil for leaves
	next     *node   // leaf chain for range scans

	// Leaves only. spans[i] locates keys[i]'s value in data, unless
	// large[i] holds it. large is nil until the leaf stores a value
	// above maxInline.
	spans []span
	data  []byte
	large [][]byte
}

func (n *node) isLeaf() bool { return n.children == nil }

// value returns keys[i]'s value, capacity clipped to its length so an
// append by the holder never reaches the arena.
func (n *node) value(i int) []byte {
	if n.large != nil && n.large[i] != nil {
		return n.large[i]
	}
	s := n.spans[i]
	if s.n == 0 {
		return nil
	}
	return n.data[s.off : s.off+s.n : s.off+s.n]
}

// set stores a copy of v as keys[i]'s value, appending it to the arena
// and compacting the arena first when v does not fit.
func (n *node) set(i int, v []byte) {
	n.spans[i] = span{}
	if n.large != nil {
		n.large[i] = nil
	}
	if len(v) > maxInline {
		if n.large == nil {
			n.large = make([][]byte, len(n.keys))
		}
		n.large[i] = append(make([]byte, 0, len(v)), v...)
		return
	}
	if len(n.data)+len(v) > cap(n.data) {
		n.compact(len(v))
	}
	n.spans[i] = span{uint32(len(n.data)), uint32(len(v))}
	n.data = append(n.data, v...)
}

// compact replaces the arena with a fresh one sized twice the live
// bytes plus extra, holding only the live values. The old arena is
// left untouched: readers may still hold slices of it.
func (n *node) compact(extra int) {
	live := extra
	for _, s := range n.spans {
		live += int(s.n)
	}
	data := make([]byte, 0, 2*live)
	for i, s := range n.spans {
		n.spans[i].off = uint32(len(data))
		data = append(data, n.data[s.off:s.off+s.n]...)
	}
	n.data = data
}

// Tree is a B+ tree. The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

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

// childIndex returns which child of interior node n covers k.
func childIndex(n *node, k uint64) int {
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++ // interior separator equal to k: the key lives right
	}
	return i
}

// leaf returns the leaf that holds k, if any leaf does.
func (t *Tree) leaf(k uint64) *node {
	n := t.root
	for !n.isLeaf() {
		n = n.children[childIndex(n, k)]
	}
	return n
}

// Get returns the value for k and whether it exists. The value is
// never written again; it stays valid after later mutations.
func (t *Tree) Get(k uint64) ([]byte, bool) {
	n := t.leaf(k)
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.value(i), true
	}
	return nil, false
}

// Put inserts or replaces the value for k with a copy of v; the tree
// does not retain v. It returns true if the key was newly inserted.
func (t *Tree) Put(k uint64, v []byte) bool {
	inserted, splitKey, right := t.insert(t.root, k, v)
	if right != nil {
		t.root = &node{
			keys:     []uint64{splitKey},
			children: []*node{t.root, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds k/v under n, returning whether a new key was added plus
// a split (separator key and new right sibling) if n overflowed.
func (t *Tree) insert(n *node, k uint64, v []byte) (bool, uint64, *node) {
	if n.isLeaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.set(i, v)
			return false, 0, nil
		}
		n.keys = insertAt(n.keys, i, k)
		n.spans = insertAt(n.spans, i, span{})
		if n.large != nil {
			n.large = insertAt(n.large, i, nil)
		}
		n.set(i, v)
		if len(n.keys) > degree {
			sk, right := n.splitLeaf()
			return true, sk, right
		}
		return true, 0, nil
	}
	i := childIndex(n, k)
	inserted, sk, right := t.insert(n.children[i], k, v)
	if right != nil {
		n.keys = insertAt(n.keys, i, sk)
		n.children = insertAt(n.children, i+1, right)
		if len(n.keys) > degree {
			sk2, r2 := n.splitInterior()
			return inserted, sk2, r2
		}
	}
	return inserted, 0, nil
}

// insertAt inserts x at s[i].
func insertAt[T any](s []T, i int, x T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeAt removes s[i], zeroing the vacated tail slot so it keeps
// nothing reachable.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// splitLeaf splits a full leaf, returning the separator and the new
// right sibling; the receiver keeps the low half and its arena, the
// sibling gets a compacted arena of its own.
func (n *node) splitLeaf() (uint64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		keys:  append([]uint64(nil), n.keys[mid:]...),
		spans: append([]span(nil), n.spans[mid:]...),
		data:  n.data,
		next:  n.next,
	}
	if n.large != nil {
		right.large = append([][]byte(nil), n.large[mid:]...)
		clear(n.large[mid:])
		n.large = n.large[:mid:mid]
	}
	right.compact(0)
	n.keys = n.keys[:mid:mid]
	n.spans = n.spans[:mid:mid]
	n.next = right
	return right.keys[0], right
}

// splitInterior splits a full interior node.
func (n *node) splitInterior() (uint64, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes k, returning whether it existed. Underflow is handled
// lazily (nodes may become sparse but never invalid), which matches
// the behaviour of store-level trees that defer compaction. The value's
// bytes stay in the arena until the leaf next compacts.
func (t *Tree) Delete(k uint64) bool {
	n := t.leaf(k)
	i := search(n.keys, k)
	if i >= len(n.keys) || n.keys[i] != k {
		return false
	}
	n.keys = removeAt(n.keys, i)
	n.spans = removeAt(n.spans, i)
	if n.large != nil {
		n.large = removeAt(n.large, i)
	}
	t.size--
	return true
}

// Range calls fn for each key in [lo, hi] in ascending order until fn
// returns false. Values are handed out as Get hands them out.
func (t *Tree) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	for n := t.leaf(lo); n != nil; n = n.next {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.value(i)) {
				return
			}
		}
	}
}
