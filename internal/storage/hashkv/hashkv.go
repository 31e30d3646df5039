// Package hashkv is a chained hash table laid out like Kyoto Cabinet's
// hash DB (paper Table 1): the storage substrate of shardedkv's hashkv
// engine, one table per shard. Its chains hold no pointers. Bucket
// heads are int32 indices into a dense cell array whose cells link to
// each other by index, and values sit in a parallel dense slice, so a
// live table is one heap object per value plus a few arrays. Values
// are retained by reference: the table never copies, so the copy a
// stored value needs is made by the caller before it takes the shard
// lock (shardedkv's front ends do, on the writer's goroutine), and a
// copy here would be serialised lock hold time. The table is
// unsynchronised; the caller holds the shard lock.
package hashkv

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/prng"
)

// maxLoad is the average chain length that triggers bucket doubling:
// past it, lookups pay chain walks instead of hash spread.
const maxLoad = 4

// cell is one key of the dense cell array. next is the index of the
// following cell in its chain, 0 for none: cells[0] is a sentinel that
// no chain names.
type cell struct {
	key  uint64
	next int32
}

// Table is a growing chained hash KV store. cells[1:] and vals[1:] are
// the live pairs, densely packed in no particular order; both arrays
// have room for maxLoad keys per bucket, so they are reallocated only
// when the bucket array doubles. int32 links cap a table at 2^31-1
// keys.
type Table struct {
	heads []int32 // bucket → first cell of its chain, 0 for none
	cells []cell
	vals  [][]byte // vals[i] is cells[i]'s value
}

// New builds a table with at least the given number of buckets (rounded
// up to a power of two). The bucket array doubles once the average
// chain length passes maxLoad, so chains stay O(1) on average however
// many keys the table absorbs.
func New(buckets int) *Table {
	n := 1
	for n < buckets {
		n <<= 1
	}
	t := &Table{}
	t.resize(n)
	return t
}

// resize gives the table n buckets and dense arrays with room for
// maxLoad×n keys, then relinks every live cell into its new chain: one
// O(n) step with no per-key allocation. Put calls it only when the
// arrays are full, so append never moves them elsewhere, and no link
// into them may be held across a resize.
func (t *Table) resize(n int) {
	cells := make([]cell, max(len(t.cells), 1), maxLoad*n+1)
	copy(cells, t.cells)
	vals := make([][]byte, len(cells), cap(cells))
	copy(vals, t.vals)
	t.heads, t.cells, t.vals = make([]int32, n), cells, vals
	for i := 1; i < len(cells); i++ {
		b := t.bucket(cells[i].key)
		cells[i].next = t.heads[b]
		t.heads[b] = int32(i)
	}
}

// bucket maps a key to its chain. The key is salted before mixing so
// the bucket is independent of shardedkv's Mix64(k) % shards routing.
func (t *Table) bucket(k uint64) int {
	return int(prng.Mix64(k^0xabcdef) & uint64(len(t.heads)-1))
}

// Put stores k=v, retaining v by reference: the caller hands over a
// slice nothing writes to afterwards. Returns true on insert, false on
// replace.
func (t *Table) Put(k uint64, v []byte) bool {
	b := t.bucket(k)
	for i := t.heads[b]; i != 0; i = t.cells[i].next {
		if t.cells[i].key == k {
			t.vals[i] = v
			return false
		}
	}
	if len(t.cells) == cap(t.cells) {
		t.resize(2 * len(t.heads))
		b = t.bucket(k)
	}
	t.cells = append(t.cells, cell{key: k, next: t.heads[b]})
	t.vals = append(t.vals, v)
	t.heads[b] = int32(len(t.cells) - 1)
	return true
}

// Get reads k.
func (t *Table) Get(k uint64) ([]byte, bool) {
	for i := t.heads[t.bucket(k)]; i != 0; i = t.cells[i].next {
		if t.cells[i].key == k {
			return t.vals[i], true
		}
	}
	return nil, false
}

// Delete removes k. The last cell moves into the hole, and the one link
// that named it is repointed, so the arrays stay dense.
func (t *Table) Delete(k uint64) bool {
	p := &t.heads[t.bucket(k)]
	for *p != 0 && t.cells[*p].key != k {
		p = &t.cells[*p].next
	}
	i := *p
	if i == 0 {
		return false
	}
	*p = t.cells[i].next
	last := int32(len(t.cells) - 1)
	if i != last {
		q := &t.heads[t.bucket(t.cells[last].key)]
		for *q != last {
			q = &t.cells[*q].next
		}
		*q = i
		t.cells[i], t.vals[i] = t.cells[last], t.vals[last]
	}
	t.vals[last] = nil
	t.cells, t.vals = t.cells[:last], t.vals[:last]
	return true
}

// hit is one matching cell of a Range or BatchRange walk.
type hit struct {
	key uint64
	i   int32
}

// sortedHits walks the dense cells and returns those whose key in
// accepts, in ascending key order.
func (t *Table) sortedHits(in func(k uint64) bool) []hit {
	var hits []hit
	for i := 1; i < len(t.cells); i++ {
		if k := t.cells[i].key; in(k) {
			hits = append(hits, hit{k, int32(i)})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int { return cmp.Compare(a.key, b.key) })
	return hits
}

// Range calls fn for each key in [lo, hi] in ascending order until fn
// returns false. The table is unordered, so Range collects the matching
// cells and sorts them: an O(n) walk plus O(m log m) in the match
// count m.
func (t *Table) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	for _, h := range t.sortedHits(func(k uint64) bool { return k >= lo && k <= hi }) {
		if !fn(h.key, t.vals[h.i]) {
			return
		}
	}
}

// BatchRange serves n range requests in ONE walk of the dense cells:
// Range costs a full walk regardless of span, so running it per request
// would multiply that walk (and its sort) by the batch size. span(i)
// returns request i's bounds. Requests are merged into disjoint
// segments, each cell is matched against them by binary search, and
// the one sorted match list is sliced per request: emit receives each
// request's pairs in ascending key order.
func (t *Table) BatchRange(n int, span func(req int) (lo, hi uint64), emit func(req int, k uint64, v []byte)) {
	type seg struct{ lo, hi uint64 }
	segs := make([]seg, 0, n)
	for i := range n {
		if lo, hi := span(i); lo <= hi {
			segs = append(segs, seg{lo, hi})
		}
	}
	if len(segs) == 0 {
		return
	}
	slices.SortFunc(segs, func(a, b seg) int { return cmp.Compare(a.lo, b.lo) })
	merged := segs[:1]
	for _, s := range segs[1:] {
		if last := &merged[len(merged)-1]; s.lo <= last.hi {
			last.hi = max(last.hi, s.hi)
		} else {
			merged = append(merged, s)
		}
	}
	hits := t.sortedHits(func(k uint64) bool {
		// Disjoint segments sorted by lo are sorted by hi too.
		j := sort.Search(len(merged), func(j int) bool { return merged[j].hi >= k })
		return j < len(merged) && merged[j].lo <= k
	})
	for ri := range n {
		lo, hi := span(ri)
		j := sort.Search(len(hits), func(j int) bool { return hits[j].key >= lo })
		for ; j < len(hits) && hits[j].key <= hi; j++ {
			emit(ri, hits[j].key, t.vals[hits[j].i])
		}
	}
}

// Scan visits every pair in dense-array order (unordered) until fn
// returns false: the raw single walk, where Range is the ordered
// flavour.
func (t *Table) Scan(fn func(k uint64, v []byte) bool) {
	for i := 1; i < len(t.cells); i++ {
		if !fn(t.cells[i].key, t.vals[i]) {
			return
		}
	}
}

// Len returns the number of live keys.
func (t *Table) Len() int { return len(t.cells) - 1 }
