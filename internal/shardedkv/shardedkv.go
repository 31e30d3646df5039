// Package shardedkv composes the repository's pieces into a servable
// KV layer: N shards, each an independently contended lock guarding a
// pluggable storage engine.
//
// Layering (top to bottom):
//
//	Store            — key → shard routing through a copy-on-write
//	                   shard map, batched MultiGet/MultiPut, ordered
//	                   Range/MultiRange scans merged across shards,
//	                   skew-adaptive shard splitting (reshard.go)
//	locks.WLock      — one lock per shard; ASLMutex by default, so
//	                   big-core workers take the FIFO fast path and
//	                   little-core workers stand by within their
//	                   epoch's reorder window (paper Algorithm 3)
//	Engine           — hashkv / btree / lsm / skiplist behind one
//	                   interface; engines are single-writer structures
//	                   and rely entirely on the shard lock
//
// The paper evaluates LibASL under databases whose lock topology is a
// handful of global locks (Table 1); a sharded store is the natural
// production topology on top: each shard is exactly the kind of
// heavily contended, short-critical-section lock the reorderable
// algorithm targets, and admission decisions stay local to the shard
// (compare "Fissile Locks" and Dice & Kogan's concurrency-restriction
// argument for keeping such decisions cheap and per-lock).
//
// Placement is no longer a fixed modulo: lookups go through an
// immutable shard-map snapshot (shardmap.go) swapped atomically when a
// skew detector (reshard.go) splits a shard whose measured traffic
// share and lock-wait fraction say the zipf head has made it a convoy.
// Snapshot readers re-validate after acquiring the shard lock: a split
// parent forwards to its children, so a stale snapshot costs one extra
// lock hop, never a wrong answer.
//
// Batched operations sort keys by shard so each shard lock is taken at
// most once per batch, turning k point-lookups into one acquisition
// per touched shard; under asymmetric contention this matters doubly,
// because every acquisition a little-core worker avoids is one fewer
// standby wait.
//
// Range scans follow the same discipline one level up: keys are
// hash-distributed, so every shard holds an interleaved slice of any
// key range. Store.Range visits one shard at a time (lock taken once
// per shard, held only while that shard's slice is collected) and
// merges the per-shard results into one ascending emission;
// MultiRange batches several ranges through a single pass, each shard
// lock taken once for the whole request set. Scans are the first op
// class here whose critical-section length is data-dependent — the
// long-holder case the ASL reorder window is designed to absorb.
//
// Store is safe for concurrent use by any number of workers; each
// worker must own its *core.Worker (they are per-goroutine, like the
// paper's __thread state).
//
// Value ownership follows the embedded-KV convention: Put retains the
// value slice by reference, so the caller must not modify it after
// the call (pass a copy to reuse a buffer), and Get returns the
// stored slice, which the caller must treat as read-only.
package shardedkv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/wal"
)

// Engine is the per-shard storage interface. Implementations are NOT
// required to be concurrency-safe: the shard lock serialises all
// access, exactly as the slot locks do in the Kyoto-like engine.
type Engine interface {
	// Get reads k. The returned slice is the stored one: read-only
	// for the caller.
	Get(k uint64) ([]byte, bool)
	// Put stores k=v and reports whether a new key was inserted
	// (false = an existing key was replaced). v is retained by
	// reference; the caller must not modify it afterwards.
	Put(k uint64, v []byte) bool
	// Delete removes k and reports whether it was present.
	Delete(k uint64) bool
	// Len returns the number of live keys.
	Len() int
	// Range calls fn for each key in [lo, hi] in ascending key order
	// until fn returns false. Every engine returns the same ordered
	// view, whatever its internal layout: ordered structures walk,
	// the hash table collects and sorts, the LSM merges memtable and
	// runs with newest-wins shadowing.
	Range(lo, hi uint64, fn func(k uint64, v []byte) bool)
}

// KV is one key/value pair of a batched put.
type Pair struct {
	Key   uint64
	Value []byte
}

// Config configures a Store.
type Config struct {
	// Shards is the shard count; 0 means 16.
	Shards int
	// NewEngine builds shard i's storage engine; nil means hash-table
	// engines (NewHashEngine). Split children call it with fresh ids
	// past the initial count.
	NewEngine func(shard int) Engine
	// NewLock builds one shard lock; nil means the paper's default
	// ASL stack (locks.FactoryASL). Use locks.Factory wrappers to
	// compare plain mutexes, MCS, etc. under identical sharding.
	NewLock locks.Factory
	// CSPad, if non-nil, runs once per engine operation while the
	// shard lock is held. Benchmarks on symmetric hosts use it with
	// workload.AsymmetryShim to emulate the paper's AMP regime, where
	// a little-core holder keeps the lock proportionally longer. Leave
	// nil in production use.
	CSPad func(w *core.Worker)
	// Reshard, if non-nil, enables dynamic resharding: shard locks are
	// wrapped with contention counters and a skew detector splits
	// sustained hot shards (see reshard.go). Nil keeps the static seed
	// behaviour bit for bit.
	Reshard *ReshardConfig
	// Durability, if non-nil, gives every shard a write-ahead log under
	// Dir (durable.go): writes append under the shard lock and group-
	// commit one fsync per batch after release, with the sync policy
	// keyed to the writer's SLO class. New replays any previous run
	// found in Dir before serving. Nil keeps the store volatile.
	Durability *DurabilityConfig
}

// ShardStats is a snapshot of one shard's operation counters.
type ShardStats struct {
	Gets, Puts, Deletes uint64
	// Scans counts engine range invocations on this shard: one per
	// (Range, shard) and one per (MultiRange request, shard). Scans
	// are the data-dependent-length op class, so they are tallied
	// apart from the point counters (and excluded from Ops).
	Scans uint64
	// BatchLocks counts the per-shard shares of batched operations
	// executed here: one per (batch, touched shard), not one per key. On
	// the plain store each is a lock acquisition of its own; on the
	// pipeline a share is one ring request (two or more when it exceeds
	// the per-request key cap) and may share its combiner's lock take
	// with other requests — CombineStats.LockTakes counts the takes.
	BatchLocks uint64
	// LockAttempts and LockContended mirror the shard lock's
	// locks.ContentionStats — every acquire/try attempt, and the
	// subset that found the lock held. Zero unless the store wraps
	// its locks (Config.Reshard); the skew detector reads
	// the contended fraction to tell a convoy from mere traffic.
	LockAttempts, LockContended uint64
}

// Ops returns the total point-operation count (scans excluded).
func (s ShardStats) Ops() uint64 { return s.Gets + s.Puts + s.Deletes }

// shard is one lock+engine pair plus its place in the shard map. The
// trailing pad keeps adjacent shards' hot counters off each other's
// cache lines.
type shard struct {
	lock locks.WLock
	eng  Engine
	// cont is the lock's contention counter when the store wraps its
	// locks; nil otherwise.
	cont *locks.Contended
	// id is the shard's creation ordinal: stable across map swaps,
	// ascending in Stats order. group/depth place the shard in the
	// map's extendible directory (shardmap.go).
	id    int
	group int
	depth uint
	// forward, once set (under lock, by split), says this shard's keys
	// moved to two children; it never reverts to nil.
	forward atomic.Pointer[splitRecord]
	// pipe is the shard's combining-pipeline state when an AsyncStore
	// is attached (pipeline.go); nil otherwise.
	pipe atomic.Pointer[pipeShard]
	// wal is the shard's append-only log when Config.Durability is set;
	// nil otherwise. Appends run under the shard lock (buffered, no
	// fsync); Commit/Sync run strictly after release (durable.go).
	wal *wal.Log
	// degraded, once set, marks the shard read-only after a log
	// failure (degraded.go). One-way, first cause wins; only ever
	// non-nil when wal is non-nil.
	degraded atomic.Pointer[DegradedError]
	gets     atomic.Uint64
	puts     atomic.Uint64
	deletes  atomic.Uint64
	scans    atomic.Uint64
	batches  atomic.Uint64
	_        [64]byte
}

// electTry is the combiner-election TryAcquire: on a
// contention-wrapped lock it probes the inner lock directly, because
// election probes fail BY DESIGN whenever another combiner is serving
// the ring — counting them would saturate the skew detector's wait
// signal and make every pipelined shard look convoyed. Real waits
// (blocking acquires, ring-full fallbacks) stay counted.
func (sh *shard) electTry(w *core.Worker) bool {
	if sh.cont != nil {
		return sh.cont.Inner().TryAcquire(w)
	}
	return sh.lock.TryAcquire(w)
}

// stats snapshots this shard's counters.
func (sh *shard) stats() ShardStats {
	st := ShardStats{
		Gets:       sh.gets.Load(),
		Puts:       sh.puts.Load(),
		Deletes:    sh.deletes.Load(),
		Scans:      sh.scans.Load(),
		BatchLocks: sh.batches.Load(),
	}
	if sh.cont != nil {
		cs := sh.cont.Stats()
		st.LockAttempts, st.LockContended = cs.Attempts, cs.Contended
	}
	return st
}

// Store is the sharded KV service layer.
type Store struct {
	smap  atomic.Pointer[shardMap]
	csPad func(w *core.Worker)

	// Split machinery (shardmap.go / reshard.go). newLock/newEngine
	// build children; splitMu serialises splits, map swaps, and
	// AsyncStore attachment; retired accumulates counters of shards
	// that split away so aggregates never lose history.
	newLock   locks.Factory
	newEngine func(shard int) Engine
	contend   bool
	maxShards int
	splitMu   sync.Mutex
	nextID    int
	splits    atomic.Uint64
	events    atomic.Uint64
	async     atomic.Pointer[AsyncStore]
	retired   retiredStats
	detector  *reshardDetector
	// dur is the durability state when Config.Durability is set
	// (durable.go); nil otherwise.
	dur *durability
	// degradeEvents counts shards flipped read-only (degraded.go).
	degradeEvents atomic.Uint64
}

// retiredStats accumulates the counters of split-away shards.
type retiredStats struct {
	gets, puts, deletes, scans, batches atomic.Uint64
	lockAttempts, lockContended         atomic.Uint64
}

// foldRetired folds a split parent's counters into the retired
// accumulator (caller holds splitMu and the shard's lock).
func (s *Store) foldRetired(sh *shard) {
	st := sh.stats()
	s.retired.gets.Add(st.Gets)
	s.retired.puts.Add(st.Puts)
	s.retired.deletes.Add(st.Deletes)
	s.retired.scans.Add(st.Scans)
	s.retired.batches.Add(st.BatchLocks)
	s.retired.lockAttempts.Add(st.LockAttempts)
	s.retired.lockContended.Add(st.LockContended)
}

// New builds a store from cfg. With Config.Durability set it panics
// on log-directory I/O errors (startup disk failure is fatal to a
// durable store); use Open to handle those as errors. Torn or corrupt
// log records are NOT errors — recovery truncates them.
func New(cfg Config) *Store {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("shardedkv: durable open failed: %v", err))
	}
	return s
}

// Open is New with the durability I/O errors surfaced. Without
// Config.Durability it cannot fail.
func Open(cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.NewEngine == nil {
		cfg.NewEngine = func(int) Engine { return NewHashEngine(256) }
	}
	if cfg.NewLock == nil {
		cfg.NewLock = locks.FactoryASL()
	}
	s := &Store{
		csPad:     cfg.CSPad,
		newLock:   cfg.NewLock,
		newEngine: cfg.NewEngine,
		contend:   cfg.Reshard != nil,
	}
	if d := cfg.Durability; d != nil {
		gen, err := readCurrentGen(d.Dir)
		if err != nil {
			return nil, err
		}
		s.dur = &durability{
			root:   d.Dir,
			genDir: genDirName(d.Dir, gen+1),
			opts:   wal.Options{SegmentBytes: d.SegmentBytes, FS: d.FS},
			wait: [2]bool{
				core.Big:    resolveWait(d.Interactive, true),
				core.Little: resolveWait(d.Bulk, false),
			},
		}
	}
	m := &shardMap{groups: make([][]*shard, cfg.Shards), shards: make([]*shard, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := s.newShard(i, i, 0)
		if err != nil {
			return nil, err
		}
		m.groups[i] = []*shard{sh}
		m.shards[i] = sh
	}
	s.nextID = cfg.Shards
	s.smap.Store(m)
	if cfg.Durability != nil {
		if err := openDurable(s, cfg.Durability); err != nil {
			return nil, err
		}
	}
	if cfg.Reshard != nil {
		s.startReshard(*cfg.Reshard)
	}
	return s, nil
}

// NumShards returns the current live shard count (grows with splits).
func (s *Store) NumShards() int { return len(s.smap.Load().shards) }

// MapEpoch returns the shard map's generation: 0 at creation, +1 per
// split. Callers comparing epochs across two reads can tell whether
// placement moved between them.
func (s *Store) MapEpoch() uint64 { return s.smap.Load().epoch }

// ShardOf maps a key to its shard's stable id under the current map
// (splitmix64's finalizer, so adjacent keys spread across shards). On
// a store that has never split, ids coincide with the seed's 0..N-1
// indices; after splits, ids identify shards across map epochs but a
// concurrent split may retire the returned id before the caller uses
// it — treat it as a routing hint, not a handle.
func (s *Store) ShardOf(k uint64) int {
	return s.smap.Load().locate(hashOf(k)).id
}

// pad runs the configured critical-section padding, if any.
func (s *Store) pad(w *core.Worker) {
	if s.csPad != nil {
		s.csPad(w)
	}
}

// Get reads k on behalf of worker w.
func (s *Store) Get(w *core.Worker, k uint64) ([]byte, bool) {
	sh := s.acquireLive(w, hashOf(k))
	v, ok := sh.eng.Get(k)
	s.pad(w)
	sh.lock.Release(w)
	sh.gets.Add(1)
	return v, ok
}

// Put stores k=v on behalf of worker w; reports insert-vs-replace.
// With durability on, the record is appended (buffered) under the
// shard lock — strictly before the engine apply, so memory is always
// a replay of the log — and, for a sync-wait class, committed after
// release: wal.Commit's leader election is the commit pipeline, so
// this writer either piggybacks on an in-flight group sync or leads
// one for every append since the last. A log failure degrades the
// shard (degraded.go) and returns the typed error; a non-nil error
// means no durability ack, whatever the bool says.
func (s *Store) Put(w *core.Worker, k uint64, v []byte) (bool, error) {
	sh := s.acquireLive(w, hashOf(k))
	lsn, err := s.logWrite(sh, wal.KindPut, k, v)
	if err != nil {
		sh.lock.Release(w)
		return false, err
	}
	inserted := sh.eng.Put(k, v)
	s.pad(w)
	sh.lock.Release(w)
	sh.puts.Add(1)
	if lsn != 0 && s.syncWaitFor(w) {
		if err := sh.wal.Commit(lsn); err != nil {
			return inserted, s.degrade(sh, err)
		}
	}
	return inserted, nil
}

// logWrite is the one log step every write path runs ahead of its
// engine apply, with sh's lock held: refuse on a degraded shard, append
// the record (buffered, no fsync), degrade the shard when the append
// fails. It returns the record's LSN — 0, which no record carries, when
// the store is volatile — or the typed error, in which case the caller
// must not apply.
func (s *Store) logWrite(sh *shard, kind wal.Kind, k uint64, v []byte) (uint64, error) {
	if sh.wal == nil {
		return 0, nil
	}
	if de := sh.degraded.Load(); de != nil {
		return 0, de
	}
	lsn, err := sh.wal.Append(kind, k, v)
	if err != nil {
		return 0, s.degrade(sh, err)
	}
	return lsn, nil
}

// Delete removes k on behalf of worker w; reports presence. Sync
// policy and degraded-mode behaviour as in Put.
func (s *Store) Delete(w *core.Worker, k uint64) (bool, error) {
	sh := s.acquireLive(w, hashOf(k))
	lsn, err := s.logWrite(sh, wal.KindDelete, k, nil)
	if err != nil {
		sh.lock.Release(w)
		return false, err
	}
	present := sh.eng.Delete(k)
	s.pad(w)
	sh.lock.Release(w)
	sh.deletes.Add(1)
	if lsn != 0 && s.syncWaitFor(w) {
		if err := sh.wal.Commit(lsn); err != nil {
			return present, s.degrade(sh, err)
		}
	}
	return present, nil
}

// Len returns the total live-key count, locking one shard at a time
// (the answer is a consistent per-shard sum, like Kyoto's count).
func (s *Store) Len(w *core.Worker) int {
	n := 0
	s.forEachLive(w, func(sh *shard) { n += sh.eng.Len() })
	return n
}

// Range calls fn for every key in [lo, hi] in ascending key order.
// Keys are hash-distributed, so each shard holds an interleaved slice
// of the range; Range visits one shard at a time — each shard lock
// taken exactly once, held only while that shard's slice is collected
// into a pooled scratch — then merges the per-shard runs in key order
// straight into fn, strictly after the last lock is released. The view
// is per-shard consistent, not globally atomic: a writer may land on an
// unvisited shard mid-scan, the usual contract for sharded scans. fn
// returning false stops the emission (the collection cost is already
// paid). fn may re-enter the store, Range included: a nested scan
// checks out a scratch of its own.
func (s *Store) Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool) {
	sc := scanPool.Get().(*scanScratch)
	collect := func(k uint64, v []byte) bool {
		sc.pairs = append(sc.pairs, Pair{Key: k, Value: v})
		return true
	}
	s.forEachLive(w, func(sh *shard) {
		sh.eng.Range(lo, hi, collect)
		s.pad(w)
		sh.scans.Add(1)
		sc.ends = append(sc.ends, len(sc.pairs))
	})
	from := 0
	for _, end := range sc.ends {
		sc.runs = append(sc.runs, sc.pairs[from:end])
		from = end
	}
	mergeRuns(sc.runs, fn)
	sc.release()
}

// scanScratch is one Range's collection buffer. Every visited shard
// appends its run to pairs (ends[i] is where run i stops), so in steady
// state a scan allocates nothing and no append regrows while a shard
// lock is held: the buffer a previous scan grew is the one the next
// scan fills.
type scanScratch struct {
	pairs []Pair
	ends  []int
	runs  [][]Pair // pairs cut at ends: mergeRuns' input
}

// scanScratchMaxPairs bounds the buffer the pool keeps (256 KiB of
// Pairs): one huge scan must not pin its high-water mark for the life
// of the process.
const scanScratchMaxPairs = 8192

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release returns sc to the pool with every Pair zeroed — a pooled
// scratch must not keep stored values reachable — or drops it when it
// grew past the retained bound.
func (sc *scanScratch) release() {
	if cap(sc.pairs) > scanScratchMaxPairs {
		return
	}
	clear(sc.pairs)
	sc.pairs, sc.ends, sc.runs = sc.pairs[:0], sc.ends[:0], sc.runs[:0]
	scanPool.Put(sc)
}

// RangeReq is one [Lo, Hi] scan of a batched MultiRange.
type RangeReq struct{ Lo, Hi uint64 }

// batchRanger is an optional Engine extension for engines whose Range
// pays a full-structure walk regardless of span (the hash table):
// MultiRange hands them the whole request batch so one walk — not one
// per request — runs under each shard lock. BatchRange must emit each
// request's in-range pairs in ascending key order.
type batchRanger interface {
	BatchRange(reqs []RangeReq, emit func(req int, k uint64, v []byte))
}

// unorderedScanner is an optional Engine extension: a full walk with
// no ordering guarantee, cheaper than Range(0, ^0) on engines that
// sort (the hash table). Split partitioning prefers it.
type unorderedScanner interface {
	Scan(fn func(k uint64, v []byte) bool)
}

// collectShardRanges collects every request's slice of one shard's
// engine into parts (parts[i] extends with request i's in-range pairs,
// in ascending key order). Caller holds the shard lock; one pad per
// engine walk, exactly as the point ops pay one pad per operation.
func (s *Store) collectShardRanges(w *core.Worker, sh *shard, reqs []RangeReq, parts [][]Pair) {
	if br, ok := sh.eng.(batchRanger); ok {
		// One engine walk serves the whole batch: one pad, one
		// engine operation.
		br.BatchRange(reqs, func(ri int, k uint64, v []byte) {
			parts[ri] = append(parts[ri], Pair{Key: k, Value: v})
		})
		s.pad(w)
	} else {
		for ri, r := range reqs {
			sh.eng.Range(r.Lo, r.Hi, func(k uint64, v []byte) bool {
				parts[ri] = append(parts[ri], Pair{Key: k, Value: v})
				return true
			})
			s.pad(w)
		}
	}
	sh.scans.Add(uint64(len(reqs)))
}

// MultiRange executes all range requests in one pass over the shards,
// grouped by shard like MultiGet: each shard's lock is taken exactly
// once, and while it is held every request collects that shard's slice
// of its range. out[i] is request i's result in ascending key order.
// Requests see the same per-shard-consistent view as Range, and all
// requests see each shard at the same instant (they share the lock
// take).
func (s *Store) MultiRange(w *core.Worker, reqs []RangeReq) [][]Pair {
	out := make([][]Pair, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	var perShard [][][]Pair // per visited shard: parts per request
	s.forEachLive(w, func(sh *shard) {
		parts := make([][]Pair, len(reqs))
		s.collectShardRanges(w, sh, reqs, parts)
		sh.batches.Add(1)
		perShard = append(perShard, parts)
	})
	lists := make([][]Pair, len(perShard))
	for ri := range reqs {
		for si, parts := range perShard {
			lists[si] = parts[ri]
		}
		out[ri] = mergedPairs(lists)
	}
	return out
}

// mergeRuns emits the ascending merge of the sorted runs to fn until fn
// returns false — the one merge behind every scan, so no caller
// materialises a merged slice it does not have to return. Equal keys
// (runs of one store never share one) emit in run order. It consumes
// runs: the slice is compacted and its elements advanced in place.
// Shard counts are small, so a select-the-min pass beats heap
// bookkeeping.
func mergeRuns(runs [][]Pair, fn func(k uint64, v []byte) bool) {
	live := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	for len(live) > 1 {
		best := 0
		for i := 1; i < len(live); i++ {
			if live[i][0].Key < live[best][0].Key {
				best = i
			}
		}
		p := live[best][0]
		if !fn(p.Key, p.Value) {
			return
		}
		if live[best] = live[best][1:]; len(live[best]) == 0 {
			live = append(live[:best], live[best+1:]...)
		}
	}
	if len(live) == 1 {
		for _, p := range live[0] {
			if !fn(p.Key, p.Value) {
				return
			}
		}
	}
}

// mergedPairs is mergeRuns into one exactly-sized slice, for the
// callers that must return a []Pair (MultiRange, a split-forwarded
// pipeline scan). nil when the runs are empty.
func mergedPairs(runs [][]Pair) []Pair {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	out := make([]Pair, 0, total)
	mergeRuns(runs, func(k uint64, v []byte) bool {
		out = append(out, Pair{Key: k, Value: v})
		return true
	})
	return out
}

// idxGroup is one batched-op work unit: the batch indices routed to
// one shard. Groups re-split along the forward chain when the shard
// moved (see execGrouped).
type idxGroup struct {
	sh  *shard
	idx []int
}

// execGrouped routes batch indices to shards under the current map
// snapshot and runs exec once per touched live shard with its lock
// held. A group whose shard split re-partitions along the forward
// record's hash bit and requeues on the children, so every index
// executes on the engine that owns its key — the batched analogue of
// acquireLive's hop. Groups are visited in ascending shard-id order
// (children after their parents); within a group, batch order is
// preserved, so later puts of a duplicate key win as in sequential
// semantics.
func (s *Store) execGrouped(w *core.Worker, n int, hash func(i int) uint64, exec func(sh *shard, idx []int)) {
	if n == 0 {
		return
	}
	m := s.smap.Load()
	hs := make([]uint64, n)
	byShard := make(map[*shard][]int, 8)
	for i := 0; i < n; i++ {
		hs[i] = hash(i)
		sh := m.locate(hs[i])
		byShard[sh] = append(byShard[sh], i)
	}
	work := make([]idxGroup, 0, len(byShard))
	for _, sh := range m.shards {
		if idx, ok := byShard[sh]; ok {
			work = append(work, idxGroup{sh: sh, idx: idx})
		}
	}
	for len(work) > 0 {
		g := work[0]
		work = work[1:]
		g.sh.lock.Acquire(w)
		if f := g.sh.forward.Load(); f != nil {
			g.sh.lock.Release(w)
			var kidIdx [2][]int
			for _, i := range g.idx {
				kidIdx[(subIdx(hs[i])>>f.bit)&1] = append(kidIdx[(subIdx(hs[i])>>f.bit)&1], i)
			}
			for b, idx := range kidIdx {
				if len(idx) > 0 {
					work = append(work, idxGroup{sh: f.kids[b], idx: idx})
				}
			}
			continue
		}
		//lint:ignore lockheldcall exec is execGrouped's internal per-shard visitor, not user code: MultiGet/MultiPut pass engine-only closures that collect into preallocated slices, and the public emit happens after this loop releases.
		exec(g.sh, g.idx)
		g.sh.lock.Release(w)
	}
}

// getMany reads keys[i] for every position i of idx from sh's engine
// into vals[i], ok[i]: one shard's share of a batched read. The caller
// holds sh's lock. Store.MultiGet's visitor and the pipeline's exec
// both run it, so there is one copy of the loop; it tallies one
// BatchLocks per call.
func (s *Store) getMany(w *core.Worker, sh *shard, keys []uint64, idx []int, vals [][]byte, ok []bool) {
	for _, i := range idx {
		vals[i], ok[i] = sh.eng.Get(keys[i])
		s.pad(w)
	}
	sh.gets.Add(uint64(len(idx)))
	sh.batches.Add(1)
}

// putMany writes kvs[i] for every position i of idx to sh, in idx
// order, each record logged before it is applied: one shard's share of
// a batched write, shared like getMany. The caller holds sh's lock. It
// stops at the first log failure, so memory equals the appended prefix.
// lsn is the last record appended (0 when nothing was logged) — what a
// sync-wait caller commits once the lock is released.
func (s *Store) putMany(w *core.Worker, sh *shard, kvs []Pair, idx []int) (inserted int, lsn uint64, err error) {
	applied := 0
	for _, i := range idx {
		l, lerr := s.logWrite(sh, wal.KindPut, kvs[i].Key, kvs[i].Value)
		if lerr != nil {
			err = lerr
			break
		}
		lsn = l
		if sh.eng.Put(kvs[i].Key, kvs[i].Value) {
			inserted++
		}
		s.pad(w)
		applied++
	}
	sh.puts.Add(uint64(applied))
	sh.batches.Add(1)
	return inserted, lsn, err
}

// walMark is a group commit owed: everything up to lsn in sh's log.
type walMark struct {
	sh  *shard
	lsn uint64
}

// commitMarks pays the marks, one Commit per log, and returns the
// first failure after degrading the shard it happened on. Commit
// fsyncs: no shard lock may be held.
func (s *Store) commitMarks(marks []walMark) error {
	var first error
	for _, m := range marks {
		if err := m.sh.wal.Commit(m.lsn); err != nil {
			if de := s.degrade(m.sh, err); first == nil {
				first = de
			}
		}
	}
	return first
}

// MultiGet reads all keys in one pass, taking each touched shard's
// lock exactly once. vals[i] and ok[i] correspond to keys[i].
func (s *Store) MultiGet(w *core.Worker, keys []uint64) (vals [][]byte, ok []bool) {
	vals = make([][]byte, len(keys))
	ok = make([]bool, len(keys))
	s.execGrouped(w, len(keys), func(i int) uint64 { return hashOf(keys[i]) }, func(sh *shard, idx []int) {
		s.getMany(w, sh, keys, idx, vals, ok)
	})
	return vals, ok
}

// MultiPut writes all pairs in one pass, taking each touched shard's
// lock exactly once. Returns the number of newly inserted keys.
// Duplicate keys within the batch apply in batch order (last wins).
// With durability on, each touched shard logs its whole sub-batch
// under the one lock take — record by record, append before apply, so
// a mid-batch log failure leaves memory equal to the appended prefix
// — and a sync-wait class pays at most one group commit per touched
// shard, after every lock is released. A non-nil error means at least
// one shard degraded: its pairs (and for a sync-wait class, every
// pair) carry no durability ack; pairs on healthy shards still
// applied.
func (s *Store) MultiPut(w *core.Worker, kvs []Pair) (int, error) {
	inserted := 0
	var firstErr error
	var marks []walMark
	s.execGrouped(w, len(kvs), func(i int) uint64 { return hashOf(kvs[i].Key) }, func(sh *shard, idx []int) {
		ins, lsn, err := s.putMany(w, sh, kvs, idx)
		inserted += ins
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if lsn != 0 {
			marks = append(marks, walMark{sh: sh, lsn: lsn})
		}
	})
	if len(marks) > 0 && s.syncWaitFor(w) {
		if err := s.commitMarks(marks); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return inserted, firstErr
}

// Stats snapshots every live shard's counters under the current map,
// in ascending shard-id order (seed shards first, split children
// after). The snapshot is not atomic across shards (counters advance
// concurrently), which is fine for the throughput reporting it feeds.
// Counters of shards that have split away are NOT here — they live in
// the retired accumulator AggregateStats folds back in.
func (s *Store) Stats() []ShardStats {
	m := s.smap.Load()
	out := make([]ShardStats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.stats()
	}
	return out
}

// AggregateStats sums Stats across live shards plus every shard that
// has split away, so totals survive any number of map swaps. It
// serialises with splits (splitMu): a split folds the retired shard's
// counters moments before the map swap drops the shard, and an
// unserialised reader in that window would count the shard's whole
// history twice. Splits hold the mutex across the rendezvous, so this
// can block for a split's duration (~ms) — it is a reporting call.
func (s *Store) AggregateStats() ShardStats {
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	agg := ShardStats{
		Gets:          s.retired.gets.Load(),
		Puts:          s.retired.puts.Load(),
		Deletes:       s.retired.deletes.Load(),
		Scans:         s.retired.scans.Load(),
		BatchLocks:    s.retired.batches.Load(),
		LockAttempts:  s.retired.lockAttempts.Load(),
		LockContended: s.retired.lockContended.Load(),
	}
	for _, st := range s.Stats() {
		agg.Gets += st.Gets
		agg.Puts += st.Puts
		agg.Deletes += st.Deletes
		agg.Scans += st.Scans
		agg.BatchLocks += st.BatchLocks
		agg.LockAttempts += st.LockAttempts
		agg.LockContended += st.LockContended
	}
	return agg
}

// String summarises the shard layout.
func (s *Store) String() string {
	m := s.smap.Load()
	return fmt.Sprintf("shardedkv.Store{shards: %d, epoch: %d}", len(m.shards), m.epoch)
}
