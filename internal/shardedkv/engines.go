package shardedkv

import (
	"sort"

	"repro/internal/storage"
	"repro/internal/storage/btree"
	"repro/internal/storage/hashkv"
	"repro/internal/storage/lsm"
	"repro/internal/storage/skiplist"
)

// This file adapts the four storage substrates to the Engine
// interface. Each adapter assumes the shard lock serialises access,
// matching the substrates' own contracts ("the caller must hold the
// slot lock" etc.).

// hashEngine wraps the Kyoto-style chained hash table. The table's own
// slot partitioning is collapsed to a single slot: partitioning is the
// Store's job here, and one shard = one independently locked region.
type hashEngine struct{ t *hashkv.Table }

// NewHashEngine returns a hash-table engine with the given initial
// bucket count (0 means 256). The table grows its bucket array under
// load, so chains stay bounded however many keys the shard absorbs.
func NewHashEngine(buckets int) Engine {
	if buckets <= 0 {
		buckets = 256
	}
	return &hashEngine{t: hashkv.NewGrowing(1, buckets)}
}

func (e *hashEngine) Get(k uint64) ([]byte, bool) { return e.t.Get(k) }
func (e *hashEngine) Put(k uint64, v []byte) bool { return e.t.Put(k, v) }
func (e *hashEngine) Delete(k uint64) bool        { return e.t.Delete(k) }
func (e *hashEngine) Len() int                    { return e.t.Len() }

// Range is ordered even though the table is not: the substrate
// collects matching chain entries and sorts them under the shard lock.
func (e *hashEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	e.t.Range(lo, hi, fn)
}

// Scan walks every pair in chain order — no sort. No store path calls
// it; it stays because benchmark/wrappers.go forwards it and pins the
// hash engine's capability set.
func (e *hashEngine) Scan(fn func(k uint64, v []byte) bool) {
	e.t.Scan(fn)
}

// BatchRange serves a whole request batch in ONE chain walk: the
// table's Range costs a full O(n) walk regardless of span, so running
// it per request would multiply that walk (and its sort) by the batch
// size while the shard lock is held. Requests are merged into disjoint
// segments, each walked entry is matched against them by binary
// search, and the single sorted match list is sliced per request.
func (e *hashEngine) BatchRange(reqs []RangeReq, emit func(req int, k uint64, v []byte)) {
	segs := make([]RangeReq, 0, len(reqs))
	for _, r := range reqs {
		if r.Lo <= r.Hi {
			segs = append(segs, r)
		}
	}
	if len(segs) == 0 {
		return
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Lo < segs[j].Lo })
	merged := segs[:1]
	for _, sg := range segs[1:] {
		if last := &merged[len(merged)-1]; sg.Lo <= last.Hi {
			if sg.Hi > last.Hi {
				last.Hi = sg.Hi
			}
		} else {
			merged = append(merged, sg)
		}
	}
	type kv struct {
		k uint64
		v []byte
	}
	var matched []kv
	e.t.Scan(func(k uint64, v []byte) bool {
		// Disjoint segments sorted by Lo are sorted by Hi too.
		i := sort.Search(len(merged), func(i int) bool { return merged[i].Hi >= k })
		if i < len(merged) && merged[i].Lo <= k {
			matched = append(matched, kv{k, v})
		}
		return true
	})
	sort.Slice(matched, func(i, j int) bool { return matched[i].k < matched[j].k })
	for ri, r := range reqs {
		i := sort.Search(len(matched), func(i int) bool { return matched[i].k >= r.Lo })
		for ; i < len(matched) && matched[i].k <= r.Hi; i++ {
			emit(ri, matched[i].k, matched[i].v)
		}
	}
}

// btreeEngine wraps the B+tree, which copies values into its leaf arenas
// and keeps its nodes in pointer-free slabs: one GC object per leaf.
type btreeEngine struct{ t *btree.Tree }

// NewBTreeEngine returns a B+tree engine.
func NewBTreeEngine() Engine { return &btreeEngine{t: btree.New()} }

func (e *btreeEngine) Get(k uint64) ([]byte, bool) { return e.t.Get(k) }
func (e *btreeEngine) Put(k uint64, v []byte) bool { return e.t.Put(k, v) }
func (e *btreeEngine) Delete(k uint64) bool        { return e.t.Delete(k) }
func (e *btreeEngine) Len() int                    { return e.t.Len() }

func (e *btreeEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	e.t.Range(lo, hi, fn)
}

// skiplistEngine wraps the LevelDB-style skiplist.
type skiplistEngine struct{ l *skiplist.List }

// NewSkiplistEngine returns a skiplist engine seeded for tower-height
// draws.
func NewSkiplistEngine(seed uint64) Engine {
	return &skiplistEngine{l: skiplist.New(seed)}
}

func (e *skiplistEngine) Get(k uint64) ([]byte, bool) { return e.l.Get(k) }
func (e *skiplistEngine) Put(k uint64, v []byte) bool { return e.l.Put(k, v) }
func (e *skiplistEngine) Delete(k uint64) bool        { return e.l.Delete(k) }
func (e *skiplistEngine) Len() int                    { return e.l.Len() }

func (e *skiplistEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	e.l.Range(lo, hi, fn)
}

// lsmEngine wraps the LSM store. The substrate now has first-class
// tombstone deletes, insert-vs-replace reporting, a live-key count,
// and a merged Range iterator, so the adapter is a thin delegation:
// values pass through by reference (no tag-byte copy) and there is no
// shadow key set to keep in sync.
type lsmEngine struct{ s *lsm.Store }

// NewLSMEngine returns an LSM engine. FlushBytes 0 keeps the
// substrate's default memtable size.
func NewLSMEngine(seed uint64, flushBytes int) Engine {
	s := lsm.New(seed)
	s.FlushBytes = flushBytes
	return &lsmEngine{s: s}
}

func (e *lsmEngine) Get(k uint64) ([]byte, bool) { return e.s.Get(k) }
func (e *lsmEngine) Put(k uint64, v []byte) bool { return e.s.Put(k, v) }
func (e *lsmEngine) Delete(k uint64) bool        { return e.s.Delete(k) }
func (e *lsmEngine) Len() int                    { return e.s.Len() }

func (e *lsmEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	e.s.Range(lo, hi, fn)
}

// The LSM is the one substrate with native snapshot machinery, so its
// adapter opts into the storage capability interfaces: checkpoints
// freeze-and-pin a Version under the shard lock and dump it lock-free
// afterwards, recovery bulk-loads checkpoint state as a single run,
// and Compact folds the run stack before a dump. The other adapters
// deliberately implement none of these — they exercise shardedkv's
// full-dump fallback.
var (
	_ storage.Snapshotter = (*lsmEngine)(nil)
	_ storage.Compactor   = (*lsmEngine)(nil)
)

// lsmSnap adapts a pinned lsm.Version to storage.Snapshot.
type lsmSnap struct {
	s *lsm.Store
	v *lsm.Version
}

func (sn lsmSnap) Range(fn func(k uint64, v []byte) bool) { sn.v.Range(fn) }
func (sn lsmSnap) Release()                               { sn.s.Release(sn.v) }

func (e *lsmEngine) Snapshot() storage.Snapshot {
	return lsmSnap{s: e.s, v: e.s.Snapshot()}
}

func (e *lsmEngine) Restore(src func(yield func(k uint64, v []byte) bool)) {
	var keys []uint64
	var vals [][]byte
	src(func(k uint64, v []byte) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	sk := make([]uint64, len(keys))
	sv := make([][]byte, len(vals))
	for i, o := range order {
		sk[i], sv[i] = keys[o], vals[o]
	}
	e.s.Load(sk, sv)
}

func (e *lsmEngine) Compact() { e.s.Compact() }

// EngineSpec names an engine constructor so benchmarks and tests can
// sweep the full engine set.
type EngineSpec struct {
	Name string
	New  func(shard int) Engine
}

// AllEngines returns the four engine constructors, deterministically
// seeded per shard where the substrate takes a seed.
func AllEngines() []EngineSpec {
	return []EngineSpec{
		{Name: "hashkv", New: func(int) Engine { return NewHashEngine(256) }},
		{Name: "btree", New: func(int) Engine { return NewBTreeEngine() }},
		{Name: "skiplist", New: func(i int) Engine { return NewSkiplistEngine(uint64(i)*0x9e3779b97f4a7c15 + 1) }},
		{Name: "lsm", New: func(i int) Engine { return NewLSMEngine(uint64(i)*0xbf58476d1ce4e5b9+1, 1<<16) }},
	}
}
