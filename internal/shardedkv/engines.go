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
// matching the substrates' own contracts ("the caller holds the
// shard lock" etc.).

// hashEngine wraps the Kyoto-style chained hash table, one table per
// shard: partitioning is the Store's job, and one shard = one
// independently locked region.
type hashEngine struct{ t *hashkv.Table }

// NewHashEngine returns a hash-table engine with the given initial
// bucket count (0 means 256). The table grows its bucket array under
// load, so chains stay bounded however many keys the shard absorbs.
func NewHashEngine(buckets int) Engine {
	if buckets <= 0 {
		buckets = 256
	}
	return &hashEngine{t: hashkv.New(buckets)}
}

func (e *hashEngine) Get(k uint64) ([]byte, bool) { return e.t.Get(k) }
func (e *hashEngine) Put(k uint64, v []byte) bool { return e.t.Put(k, v) }
func (e *hashEngine) Delete(k uint64) bool        { return e.t.Delete(k) }
func (e *hashEngine) Len() int                    { return e.t.Len() }

// Range is ordered even though the table is not: the substrate
// collects the matching pairs and sorts them under the shard lock.
func (e *hashEngine) Range(lo, hi uint64, fn func(k uint64, v []byte) bool) {
	e.t.Range(lo, hi, fn)
}

// Scan walks every pair unordered, with no sort. No store path calls
// it; it stays because benchmark/wrappers.go forwards it and pins the
// hash engine's capability set.
func (e *hashEngine) Scan(fn func(k uint64, v []byte) bool) {
	e.t.Scan(fn)
}

// RangeReq is one [Lo, Hi] span of a hashEngine.BatchRange request.
type RangeReq struct{ Lo, Hi uint64 }

// BatchRange serves a whole request batch in one walk of the table
// (hashkv.Table.BatchRange), not one full walk per request. No store
// path calls it; like Scan, it stays because benchmark/wrappers.go
// forwards it and pins the hash engine's capability set.
func (e *hashEngine) BatchRange(reqs []RangeReq, emit func(req int, k uint64, v []byte)) {
	e.t.BatchRange(len(reqs), func(i int) (uint64, uint64) { return reqs[i].Lo, reqs[i].Hi }, emit)
}

// btreeEngine wraps the B+tree, which copies values into its leaf arenas
// and keeps its nodes in pointer-free slabs: one GC object per leaf.
type btreeEngine struct{ t *btree.Tree }

// copiesValues marks the btree as a valueCopier: Put copies the value
// into a leaf arena, so the front ends hand it the caller's slice as is.
func (e *btreeEngine) copiesValues() {}

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
// values pass through by reference (no tag-byte copy; the Store hands
// Put a private copy, as it does for hashkv and the skiplist) and there
// is no shadow key set to keep in sync.
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
