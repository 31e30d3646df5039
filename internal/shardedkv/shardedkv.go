// Package shardedkv composes the repository's pieces into a servable
// KV layer: N shards, each an independently contended lock guarding a
// pluggable storage engine.
//
// Layering (top to bottom):
//
//	Store            — key → shard routing (Mix64(k) % Shards),
//	                   batched MultiGet/MultiPut, ordered
//	                   Range scans merged across shards
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
// Placement is fixed for the store's life: key k lives on shard
// Mix64(k) % Shards (splitmix64's finalizer, so adjacent keys spread
// across shards). The shard a lookup locates is the shard that owns
// the key, so every path locks it directly, and no path ever holds two
// shard locks at once — multi-shard operations visit one shard at a
// time.
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
// merges the per-shard results into one ascending emission. Scans are
// the first op class here whose critical-section length is
// data-dependent — the long-holder case the ASL reorder window is
// designed to absorb.
//
// Store is safe for concurrent use by any number of workers; each
// worker must own its *core.Worker (they are per-goroutine, like the
// paper's __thread state).
//
// Values written are borrowed for the call: Put and MultiPut read the
// caller's slices and keep none of them, so a caller may reuse its
// buffer as soon as the call returns. The one copy a stored value needs
// is made once. An engine that copies into memory of its own (the
// btree's leaf arenas) gets the caller's slice as is; every other engine
// gets a private copy, made on the caller's goroutine before the shard
// lock is taken or the request is queued, so no copy runs under a shard
// lock or in a combiner. Get returns the stored slice, which the caller
// must treat as read-only.
package shardedkv

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/wal"
)

// Engine is the per-shard storage interface. Implementations are NOT
// required to be concurrency-safe: the shard lock serialises all
// access, exactly as Kyoto Cabinet's slot locks do (paper Table 1).
type Engine interface {
	// Get reads k. The returned slice is the stored one: read-only
	// for the caller.
	Get(k uint64) ([]byte, bool)
	// Put stores k=v and reports whether a new key was inserted
	// (false = an existing key was replaced). An engine may keep v
	// itself: the Store hands it a slice nothing writes to afterwards,
	// a private copy unless the engine is a valueCopier.
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

// valueCopier is implemented by engines whose Put copies the value
// into memory the engine owns (the btree). The Store finds it by type
// assertion at Open; for any other engine the front ends copy each
// written value before the shard lock (Store.owned).
type valueCopier interface{ copiesValues() }

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
	// engines (NewHashEngine).
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
	// (Range, shard). Scans are the data-dependent-length op class, so
	// they are tallied apart from the point counters (and excluded
	// from Ops).
	Scans uint64
	// BatchLocks counts the per-shard shares of batched operations
	// executed here: one per (batch, touched shard), not one per key,
	// each a lock acquisition of its own on either front end.
	BatchLocks uint64
}

// Ops returns the total point-operation count (scans excluded).
func (s ShardStats) Ops() uint64 { return s.Gets + s.Puts + s.Deletes }

// shard is one lock+engine pair. The trailing pad keeps adjacent
// shards' hot counters off each other's cache lines.
type shard struct {
	lock locks.WLock
	eng  Engine
	// id is the shard's index in Store.shards: what ShardOf returns for
	// its keys, and the name of its log directory.
	id int
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

// stats snapshots this shard's counters.
func (sh *shard) stats() ShardStats {
	return ShardStats{
		Gets:       sh.gets.Load(),
		Puts:       sh.puts.Load(),
		Deletes:    sh.deletes.Load(),
		Scans:      sh.scans.Load(),
		BatchLocks: sh.batches.Load(),
	}
}

// The shard-lock guard. Every shard lock in the program is taken and
// dropped through acquire, tryAcquire and release, with the taking
// worker recording the one shard lock it holds (core.Worker.HeldShard).
// The guard checks the two contracts the store's callers rely on, on
// every call, with no flag to turn it off:
//
//   - The lock order: shard locks never nest. A path that needs several
//     shards visits them one at a time. Every other lock — engine,
//     pipeline, server, wal.Log.mu and the lock algorithms' own — is
//     innermost: it is taken and dropped without a shard lock being
//     taken inside it. Store.Checkpoint's ckptMu is the one lock taken
//     outside the shard locks, and it is only ever taken holding none.
//   - Nothing blocks or re-enters under a shard lock: no Store or
//     AsyncStore call, and no fsync-issuing wal.Log call (Commit, Sync,
//     WriteCheckpoint, Close). Records are appended under the lock and
//     committed after release.
//
// acquire and tryAcquire panic when the worker already holds a shard
// lock, so a nested take — or a user callback run under the lock that
// re-enters the store — fails at once instead of deadlocking. lockFree
// panics at the fsync-issuing call sites when the worker holds one.
// TestShardLockSourceContracts keeps these the only code that touches
// sh.lock and the only callers of those log methods.

// acquire takes sh's lock for w.
func (sh *shard) acquire(w *core.Worker) {
	lockFree(w, "shard lock taken")
	sh.lock.Acquire(w)
	w.SetHeldShard(sh.id)
}

// tryAcquire takes sh's lock for w if it is free. A losing try takes
// nothing and records nothing; a try made while holding a shard lock
// panics whatever its outcome would have been.
func (sh *shard) tryAcquire(w *core.Worker) bool {
	lockFree(w, "shard lock tried")
	if !sh.lock.TryAcquire(w) {
		return false
	}
	w.SetHeldShard(sh.id)
	return true
}

// release drops sh's lock, which w holds.
func (sh *shard) release(w *core.Worker) {
	w.SetHeldShard(-1)
	sh.lock.Release(w)
}

// lockFree panics when w holds a shard lock; op names what w was about
// to do.
func lockFree(w *core.Worker, op string) {
	if held := w.HeldShard(); held >= 0 {
		panic("shardedkv: " + op + " while holding shard " + strconv.Itoa(held) + "'s lock")
	}
}

// Store is the sharded KV service layer.
type Store struct {
	// shards is fixed at Open: key k lives on shards[ShardOf(k)].
	shards []*shard
	csPad  func(w *core.Worker)
	// keeps is set when some shard's engine keeps the slice Put hands
	// it (is not a valueCopier): writes then copy every value first.
	keeps bool
	// dur is the durability state when Config.Durability is set
	// (durable.go); nil otherwise.
	dur *durability
	// degradeEvents counts shards flipped read-only (degraded.go).
	degradeEvents atomic.Uint64
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
	s := &Store{csPad: cfg.CSPad, shards: make([]*shard, cfg.Shards)}
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
	for i := range s.shards {
		sh, err := s.newShard(i, cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
		if _, ok := sh.eng.(valueCopier); !ok {
			s.keeps = true
		}
	}
	if cfg.Durability != nil {
		if err := openDurable(s, cfg.Durability); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newShard builds shard id. With durability on it also opens the
// shard's log in the live generation directory.
func (s *Store) newShard(id int, cfg Config) (*shard, error) {
	sh := &shard{id: id, lock: cfg.NewLock(), eng: cfg.NewEngine(id)}
	if s.dur != nil {
		lg, err := wal.Open(shardWalDir(s.dur.genDir, id), s.dur.opts)
		if err != nil {
			return nil, err
		}
		sh.wal = lg
	}
	return sh, nil
}

// NumShards returns the shard count (Config.Shards, or its default).
func (s *Store) NumShards() int { return len(s.shards) }

// MapEpoch always returns 0: placement never changes after Open, so
// there is no map generation to count. It stays because benchmark/
// reports it as shardedkv.map_epoch.
func (s *Store) MapEpoch() uint64 { return 0 }

// ShardOf returns the index of the shard owning k: Mix64(k) %
// NumShards() (splitmix64's finalizer, so adjacent keys spread across
// shards). Placement is fixed for the store's life, so the index is a
// stable handle: WAL recovery and the benchmark's per-shard counters
// rely on it.
func (s *Store) ShardOf(k uint64) int {
	return int(prng.Mix64(k) % uint64(len(s.shards)))
}

// shardFor returns the shard owning k.
func (s *Store) shardFor(k uint64) *shard { return s.shards[s.ShardOf(k)] }

// lockShard acquires and returns the shard owning k.
func (s *Store) lockShard(w *core.Worker, k uint64) *shard {
	sh := s.shardFor(k)
	sh.acquire(w)
	return sh
}

// owned returns the value to hand the engines for v: v itself when
// every engine copies what it stores, else a private copy. Write paths
// call it on the caller's goroutine, before the shard lock is taken, so
// the copy is never lock hold time.
func (s *Store) owned(v []byte) []byte {
	if !s.keeps {
		return v
	}
	return bytes.Clone(v)
}

// ownedPairs is owned for a batch: kvs itself when every engine copies
// what it stores, else a copy of kvs staged in *buf whose values are
// private copies. The caller clears *buf before reusing it elsewhere, so
// a pooled buffer keeps no stored value reachable.
func (s *Store) ownedPairs(kvs []Pair, buf *[]Pair) []Pair {
	if !s.keeps {
		return kvs
	}
	own := (*buf)[:0]
	for _, p := range kvs {
		own = append(own, Pair{Key: p.Key, Value: bytes.Clone(p.Value)})
	}
	*buf = own
	return own
}

// pad runs the configured critical-section padding, if any.
func (s *Store) pad(w *core.Worker) {
	if s.csPad != nil {
		s.csPad(w)
	}
}

// Get reads k on behalf of worker w.
func (s *Store) Get(w *core.Worker, k uint64) ([]byte, bool) {
	sh := s.lockShard(w, k)
	v, ok := sh.eng.Get(k)
	s.pad(w)
	sh.release(w)
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
// means no durability ack, whatever the bool says. v is borrowed for
// the call (see owned).
func (s *Store) Put(w *core.Worker, k uint64, v []byte) (bool, error) {
	v = s.owned(v)
	sh := s.lockShard(w, k)
	lsn, err := s.logWrite(sh, wal.KindPut, k, v)
	if err != nil {
		sh.release(w)
		return false, err
	}
	inserted := sh.eng.Put(k, v)
	s.pad(w)
	sh.release(w)
	sh.puts.Add(1)
	if lsn != 0 && s.syncWaitFor(w) {
		return inserted, s.commit(w, walMark{sh: sh, lsn: lsn})
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
	sh := s.lockShard(w, k)
	lsn, err := s.logWrite(sh, wal.KindDelete, k, nil)
	if err != nil {
		sh.release(w)
		return false, err
	}
	present := sh.eng.Delete(k)
	s.pad(w)
	sh.release(w)
	sh.deletes.Add(1)
	if lsn != 0 && s.syncWaitFor(w) {
		return present, s.commit(w, walMark{sh: sh, lsn: lsn})
	}
	return present, nil
}

// Len returns the total live-key count, locking one shard at a time
// (the answer is a consistent per-shard sum, like Kyoto's count).
func (s *Store) Len(w *core.Worker) int {
	n := 0
	s.forEachShard(w, func(sh *shard) { n += sh.eng.Len() })
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
	s.forEachShard(w, func(sh *shard) {
		sh.eng.Range(lo, hi, sc.collect)
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
	// collect is sc.add, bound once by newScanScratch: a method value
	// made per scan would be one heap object per Range.
	collect func(k uint64, v []byte) bool
}

// add appends one engine emission to pairs.
func (sc *scanScratch) add(k uint64, v []byte) bool {
	sc.pairs = append(sc.pairs, Pair{Key: k, Value: v})
	return true
}

// scanScratchMaxPairs bounds the buffer the pool keeps (256 KiB of
// Pairs): one huge scan must not pin its high-water mark for the life
// of the process.
const scanScratchMaxPairs = 8192

var scanPool = sync.Pool{New: func() any { return newScanScratch() }}

// newScanScratch returns an empty scratch with collect bound.
func newScanScratch() *scanScratch {
	sc := new(scanScratch)
	sc.collect = sc.add
	return sc
}

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

// forEachShard visits every shard in index order, running fn with the
// shard's lock held; it never holds two shard locks at once.
func (s *Store) forEachShard(w *core.Worker, fn func(sh *shard)) {
	for _, sh := range s.shards {
		sh.acquire(w)
		fn(sh)
		sh.release(w)
	}
}

// grouping is one batch's scratch on the plain store, pooled: the
// positions sorted by shard, each shard's end in that order, and the
// batch's owned pairs (ownedPairs). In steady state a batch allocates
// none of it.
type grouping struct {
	order []int
	ends  []int
	own   []Pair
}

// groupingMaxKeys bounds the batch size whose scratch the pool keeps:
// one huge batch must not pin its high-water mark.
const groupingMaxKeys = 8192

var groupPool = sync.Pool{New: func() any { return new(grouping) }}

// release returns g to the pool holding no caller memory, or drops it
// when it grew past groupingMaxKeys.
func (g *grouping) release() {
	if cap(g.order) > groupingMaxKeys {
		return
	}
	clear(g.own)
	g.own = g.own[:0]
	groupPool.Put(g)
}

// execGrouped groups batch positions by the shard owning key(i) and
// runs exec once per touched shard with its lock held, in shard index
// order; within a group batch order is preserved, so later puts of a
// duplicate key win as in sequential semantics. The grouping is a
// counting sort into g: count per shard, prefix sums, then a stable
// scatter of the positions.
func (s *Store) execGrouped(w *core.Worker, g *grouping, n int, key func(i int) uint64, exec func(sh *shard, idx []int)) {
	if n == 0 {
		return
	}
	g.order = resize(g.order, n)
	g.ends = resize(g.ends, len(s.shards))
	clear(g.ends)
	for i := 0; i < n; i++ {
		g.ends[s.ShardOf(key(i))]++
	}
	start := 0
	for si, c := range g.ends {
		g.ends[si] = start
		start += c
	}
	for i := 0; i < n; i++ {
		si := s.ShardOf(key(i))
		g.order[g.ends[si]] = i
		g.ends[si]++
	}
	start = 0
	for si, end := range g.ends {
		if end == start {
			continue
		}
		sh := s.shards[si]
		sh.acquire(w)
		exec(sh, g.order[start:end])
		sh.release(w)
		start = end
	}
}

// resize returns b with length n, reallocated only when it lacks the
// capacity.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// walMark is a group commit owed: everything up to lsn in sh's log.
type walMark struct {
	sh  *shard
	lsn uint64
}

// commit pays one mark — Commit on its log — and degrades the shard
// when that fails. Commit fsyncs: w may hold no shard lock.
func (s *Store) commit(w *core.Worker, m walMark) error {
	lockFree(w, "wal.Log.Commit")
	if err := m.sh.wal.Commit(m.lsn); err != nil {
		return s.degrade(m.sh, err)
	}
	return nil
}

// commitMarks pays the marks, one Commit per log, and returns the
// first failure.
func (s *Store) commitMarks(w *core.Worker, marks []walMark) error {
	var first error
	for _, m := range marks {
		if err := s.commit(w, m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MultiGet reads all keys in one pass, taking each touched shard's
// lock exactly once. vals[i] and ok[i] correspond to keys[i].
func (s *Store) MultiGet(w *core.Worker, keys []uint64) (vals [][]byte, ok []bool) {
	vals = make([][]byte, len(keys))
	ok = make([]bool, len(keys))
	g := groupPool.Get().(*grouping)
	s.execGrouped(w, g, len(keys), func(i int) uint64 { return keys[i] }, func(sh *shard, idx []int) {
		for _, i := range idx {
			vals[i], ok[i] = sh.eng.Get(keys[i])
			s.pad(w)
		}
		sh.gets.Add(uint64(len(idx)))
		sh.batches.Add(1)
	})
	g.release()
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
// applied. The values are borrowed for the call, as in Put.
func (s *Store) MultiPut(w *core.Worker, kvs []Pair) (int, error) {
	inserted := 0
	var firstErr error
	var marks []walMark
	g := groupPool.Get().(*grouping)
	kvs = s.ownedPairs(kvs, &g.own)
	s.execGrouped(w, g, len(kvs), func(i int) uint64 { return kvs[i].Key }, func(sh *shard, idx []int) {
		applied, lsn := 0, uint64(0)
		for _, i := range idx {
			l, err := s.logWrite(sh, wal.KindPut, kvs[i].Key, kvs[i].Value)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
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
		if lsn != 0 {
			marks = append(marks, walMark{sh: sh, lsn: lsn})
		}
	})
	g.release()
	if len(marks) > 0 && s.syncWaitFor(w) {
		if err := s.commitMarks(w, marks); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return inserted, firstErr
}

// Stats snapshots every shard's counters in shard index order. The
// snapshot is not atomic across shards (counters advance
// concurrently), which is fine for the throughput reporting it feeds.
func (s *Store) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// AggregateStats sums Stats across shards.
func (s *Store) AggregateStats() ShardStats {
	var agg ShardStats
	for _, st := range s.Stats() {
		agg.Gets += st.Gets
		agg.Puts += st.Puts
		agg.Deletes += st.Deletes
		agg.Scans += st.Scans
		agg.BatchLocks += st.BatchLocks
	}
	return agg
}

// String summarises the shard layout.
func (s *Store) String() string {
	return fmt.Sprintf("shardedkv.Store{shards: %d}", len(s.shards))
}
