package shardedkv

import (
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/wal"
)

// This file implements the copy-on-write shard map behind dynamic
// resharding: the store's data-placement function is no longer the
// fixed hash-modulo of a static shard array but an immutable two-level
// directory swapped atomically on every split. The design is the
// lock-fission counterpart of the paper's asymmetry-aware admission:
// where Fissile Locks (Dice & Kogan) split one saturated lock into
// finer-grained ones, the store splits one saturated SHARD — lock and
// engine together — once measured skew shows the zipf head has made it
// a convoy, and "Avoiding Scalability Collapse by Restricting
// Concurrency" supplies the doctrine of reacting to measured
// saturation rather than static configuration.
//
// Layout: the base directory has one group per configured shard (any
// count, preserving the seed store's Mix64(k) % Shards routing when no
// split has happened). Each group holds a power-of-two slice of shard
// pointers indexed by the hash's high bits — an extendible-hashing
// subdirectory. Splitting a shard of local depth d either doubles its
// group's slice (when the shard spans the whole slice) or just rewrites
// the entries pointing at it, installing two children of depth d+1 that
// partition the parent's keys by sub-index bit d.
//
// Concurrency protocol:
//
//   - Readers load the map pointer, locate a shard, and ACQUIRE ITS
//     LOCK before touching the engine. The map they read may be one
//     split stale by then, so every post-acquire path re-checks the
//     shard's forward pointer: a split parent forwards (under its own
//     lock, before release) to its two children, and the reader hops —
//     releasing the stale lock, acquiring the child's — until it lands
//     on a live shard. Forward pointers only ever go nil → non-nil, so
//     the chase is bounded by the number of splits taken.
//   - Splits serialise on the store's split mutex, rendezvous ONLY the
//     affected shard (its lock is held across drain, key partition, map
//     swap, and forward installation), and never touch another shard's
//     lock — the rest of the store serves traffic throughout.
type shardMap struct {
	// epoch counts map generations: one per split. Snapshot-aware
	// callers compare epochs to detect that placement moved under them.
	epoch uint64
	// groups[g] is base slot g's subdirectory, indexed by high hash
	// bits; always a power-of-two length.
	groups [][]*shard
	// shards is the distinct live shard set in ascending id order (ids
	// are creation ordinals, so the seed shards keep their 0..n-1
	// positions and children append after).
	shards []*shard
}

// maxSplitDepth bounds one lineage's split chain. Each level doubles
// the group's subdirectory (2^depth pointers), and subIdx only has 32
// hash bits to route on — but the practical argument bites first: a
// shard still hot after this many fissions is hot on too few keys for
// fission to spread (the single-hot-key limit), so further splits
// would burn budget and memory for nothing.
const maxSplitDepth = 16

// splitRecord forwards a split parent to its children: bit is the
// sub-index bit that routes between them (the parent's depth at split
// time). Installed under the parent's lock; immutable afterwards.
type splitRecord struct {
	bit  uint
	kids [2]*shard
}

// child returns the child owning hash h.
func (f *splitRecord) child(h uint64) *shard {
	return f.kids[(subIdx(h)>>f.bit)&1]
}

// hashOf is the store's placement hash (splitmix64's finalizer, as in
// the seed's ShardOf).
func hashOf(k uint64) uint64 { return prng.Mix64(k) }

// subIdx extracts the subdirectory index bits. The base directory
// consumes the hash modulo the group count (all 64 bits when the count
// is not a power of two, the low bits when it is), so the subdirectory
// walks the high 32 bits instead — independent enough for placement,
// and deterministic, which is all correctness needs.
func subIdx(h uint64) uint64 { return h >> 32 }

// locate returns the shard owning hash h under this map.
func (m *shardMap) locate(h uint64) *shard {
	g := m.groups[h%uint64(len(m.groups))]
	return g[subIdx(h)&uint64(len(g)-1)]
}

// withSplit returns a new map with parent replaced by its two kids:
// the groups slice is copied, the parent's group subdirectory is
// copied (doubling it when the parent spanned the whole slice), and
// the distinct-shard list swaps parent for kids. The receiver is never
// modified — readers keep whatever snapshot they hold.
func (m *shardMap) withSplit(parent *shard, kids [2]*shard) *shardMap {
	nm := &shardMap{epoch: m.epoch + 1}
	nm.groups = make([][]*shard, len(m.groups))
	copy(nm.groups, m.groups)
	g := m.groups[parent.group]
	if len(g) == 1<<parent.depth {
		// The parent's slice spans the whole subdirectory: double it,
		// replicating the existing pattern into the new top bit.
		ng := make([]*shard, 2*len(g))
		for i := range ng {
			ng[i] = g[i&(len(g)-1)]
		}
		g = ng
	} else {
		g = append([]*shard(nil), g...)
	}
	for p := range g {
		if g[p] == parent {
			g[p] = kids[(uint(p)>>parent.depth)&1]
		}
	}
	nm.groups[parent.group] = g
	nm.shards = make([]*shard, 0, len(m.shards)+1)
	for _, sh := range m.shards {
		if sh != parent {
			nm.shards = append(nm.shards, sh)
		}
	}
	// Kids carry the highest ids yet, so appending keeps ascending order.
	nm.shards = append(nm.shards, kids[0], kids[1])
	return nm
}

// newShard builds one shard. Caller holds splitMu (or is in Open).
// With durability on it also opens the shard's log in the live
// generation directory; ids are creation ordinals, so the log
// directory name doubles as the replay position (recovery replays
// shard dirs in ascending id order — parents strictly before their
// split children).
func (s *Store) newShard(id, group int, depth uint) (*shard, error) {
	sh := &shard{id: id, group: group, depth: depth}
	sh.lock = s.newLock()
	if s.contend {
		sh.cont = locks.WithContention(sh.lock)
		sh.lock = sh.cont
	}
	sh.eng = s.newEngine(id)
	if s.dur != nil {
		lg, err := wal.Open(shardWalDir(s.dur.genDir, id), s.dur.opts)
		if err != nil {
			return nil, err
		}
		sh.wal = lg
		s.dur.track(sh, lg)
	}
	return sh, nil
}

// acquireLive locks and returns the live shard owning hash h, chasing
// split forwards from the given starting shard (a possibly stale
// snapshot's answer).
func (s *Store) acquireLiveFrom(w *core.Worker, sh *shard, h uint64) *shard {
	for {
		sh.lock.Acquire(w)
		f := sh.forward.Load()
		if f == nil {
			return sh
		}
		sh.lock.Release(w)
		sh = f.child(h)
	}
}

// acquireLive locates h in the current map and locks its live shard.
func (s *Store) acquireLive(w *core.Worker, h uint64) *shard {
	return s.acquireLiveFrom(w, s.smap.Load().locate(h), h)
}

// forEachLive visits every live shard covering the key space exactly
// once, starting from the current snapshot and descending into split
// children when a snapshot shard has moved. fn runs with the shard's
// lock held; the traversal never holds two locks at once.
func (s *Store) forEachLive(w *core.Worker, fn func(sh *shard)) {
	m := s.smap.Load()
	work := append(make([]*shard, 0, len(m.shards)), m.shards...)
	for len(work) > 0 {
		sh := work[len(work)-1]
		work = work[:len(work)-1]
		sh.lock.Acquire(w)
		if f := sh.forward.Load(); f != nil {
			sh.lock.Release(w)
			work = append(work, f.kids[0], f.kids[1])
			continue
		}
		//lint:ignore lockheldcall fn is forEachLive's internal per-shard visitor and must run under the shard lock (that is the helper's contract); the public Range/MultiRange callers pass collect-only closures and emit after release.
		fn(sh)
		sh.lock.Release(w)
	}
}

// split replaces sh with two children partitioning its keys by the
// next hash bit. It serialises with other splits, holds only sh's lock
// for the whole rendezvous, and returns false when sh already moved or
// the shard budget is spent. The sequence under sh's lock matters:
//
//  1. drain sh's async ring (queued ops must execute against the
//     engine they were routed to while it is still authoritative),
//  2. partition the engine's keys into the children via Range,
//  3. attach pipeline rings to the children (before they are
//     reachable, so no submitter ever finds a shard without a ring),
//  4. install the forward pointer,
//  5. drain the ring AGAIN, now through the forward (requests that
//     slipped in between steps 1 and 4 execute against the live
//     children, still in FIFO order, before anything can route to
//     the children's own rings),
//  6. swap the map (new arrivals route straight to the children).
//
// Forward-before-swap is what preserves each worker's program order
// across the split: an op whose submit returned before step 6 has
// either executed (steps 1/5) or sits in a ring the same worker's
// next op also resolves to. A producer that enqueues on sh's ring
// after step 5 (it located sh through a stale map snapshot) observes
// the forward pointer post-publish and drives the retired ring dry
// before its submit returns (see AsyncStore.submit), so nothing is
// ever stranded behind the swap.
func (s *Store) split(w *core.Worker, sh *shard) bool {
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	m := s.smap.Load()
	if s.maxShards > 0 && len(m.shards)+1 > s.maxShards {
		return false
	}
	if sh.depth >= maxSplitDepth {
		return false
	}
	sh.lock.Acquire(w)
	if sh.forward.Load() != nil {
		// Lost a race with an earlier split of the same shard (the
		// caller chose it from a stale snapshot).
		sh.lock.Release(w)
		return false
	}
	var pend []*request
	a := s.async.Load()
	if a != nil {
		a.drainForSplit(w, sh, &pend)
	}
	var kids [2]*shard
	for i := range kids {
		// Children get fresh, empty logs: the rehomed keys below stay
		// covered by the parent's log, which is retained until the next
		// checkpoint's generation flip, and ascending-id replay order
		// applies the parent's history before any child record.
		kid, err := s.newShard(s.nextID, sh.group, sh.depth+1)
		if err != nil {
			// Child log open failed (disk trouble). Abort the split:
			// nothing has been published, the parent stays live. The
			// first child's (empty, unpublished) log closes after
			// Release — Close fsyncs and must not run under the lock.
			sh.lock.Release(w)
			if i == 1 && kids[0].wal != nil {
				_ = kids[0].wal.Close()
			}
			s.completePending(pend)
			return false
		}
		kids[i] = kid
		s.nextID++
	}
	part := func(k uint64, v []byte) bool {
		kids[(subIdx(hashOf(k))>>sh.depth)&1].eng.Put(k, v)
		return true
	}
	// Partitioning needs every pair but no order: engines exposing an
	// unordered Scan (the hash table, whose Range pays a full sort)
	// rehome their keys in one plain walk.
	if us, ok := sh.eng.(unorderedScanner); ok {
		us.Scan(part)
	} else {
		sh.eng.Range(0, ^uint64(0), part)
	}
	if a != nil {
		a.attachShard(kids[0], sh.pipe.Load())
		a.attachShard(kids[1], sh.pipe.Load())
	}
	s.splits.Add(1)
	sh.forward.Store(&splitRecord{bit: sh.depth, kids: kids})
	if a != nil {
		a.drainForSplit(w, sh, &pend)
	}
	// Fold counters after the last drain that can touch sh's engine:
	// forwarded ops bump the children (live in the new map), so sh's
	// totals are final here.
	s.foldRetired(sh)
	// Drop the engine: every key now lives in the children, and no
	// path reads a forwarded shard's engine (exec and forEachLive both
	// require forward == nil), so holding it would retain a full
	// pre-split snapshot per split for as long as the shard stays
	// reachable through the pipeline's ring history.
	sh.eng = nil
	s.smap.Store(m.withSplit(sh, kids))
	sh.lock.Release(w)
	// Sync-wait writes drained during the rendezvous were applied and
	// logged but not yet durable; their futures were held back so the
	// drain never fsyncs under sh's lock. Commit and complete them now.
	s.completePending(pend)
	return true
}
