// Package btree implements an in-memory B+ tree with linked leaves:
// the ordered-map substrate of shardedkv's btree engine. Keys and
// values are uint64/[]byte; the tree itself is unsynchronised — the
// shard lock serialises access.
package btree

// degree is the maximum number of keys per node; chosen so nodes span
// a few cache lines, like a page-based tree's fanout scaled to memory.
const degree = 32

type node struct {
	keys     []uint64
	children []*node // nil for leaves
	values   [][]byte
	next     *node // leaf chain for range scans
}

func (n *node) isLeaf() bool { return n.children == nil }

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

// Get returns the value for k and whether it exists.
func (t *Tree) Get(k uint64) ([]byte, bool) {
	n := t.root
	for !n.isLeaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			i++ // interior separator equal to k: the key lives right
		}
		n = n.children[i]
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.values[i], true
	}
	return nil, false
}

// Put inserts or replaces the value for k. It returns true if the key
// was newly inserted.
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
			n.values[i] = v
			return false, 0, nil
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = v
		if len(n.keys) > degree {
			sk, right := n.splitLeaf()
			return true, sk, right
		}
		return true, 0, nil
	}
	i := search(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		i++
	}
	inserted, sk, right := t.insert(n.children[i], k, v)
	if right != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sk
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		if len(n.keys) > degree {
			sk2, r2 := n.splitInterior()
			return inserted, sk2, r2
		}
	}
	return inserted, 0, nil
}

// splitLeaf splits a full leaf, returning the separator and the new
// right sibling; the receiver keeps the low half.
func (n *node) splitLeaf() (uint64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		keys:   append([]uint64(nil), n.keys[mid:]...),
		values: append([][]byte(nil), n.values[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.values = n.values[:mid:mid]
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
// the behaviour of store-level trees that defer compaction.
func (t *Tree) Delete(k uint64) bool {
	n := t.root
	for !n.isLeaf() {
		i := search(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			i++
		}
		n = n.children[i]
	}
	i := search(n.keys, k)
	if i >= len(n.keys) || n.keys[i] != k {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// Range calls fn for each key in [lo, hi] in ascending order until fn
// returns false.
func (t *Tree) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	n := t.root
	for !n.isLeaf() {
		i := search(n.keys, lo)
		if i < len(n.keys) && n.keys[i] == lo {
			i++
		}
		n = n.children[i]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// Scan visits every key in order (a full-table scan).
func (t *Tree) Scan(fn func(k uint64, v []byte) bool) {
	t.Range(0, ^uint64(0), fn)
}

// Min returns the smallest key, or false when empty.
func (t *Tree) Min() (uint64, bool) {
	n := t.root
	for !n.isLeaf() {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return 0, false
	}
	return n.keys[0], true
}
