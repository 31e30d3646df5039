// Package storefix is the fixture stand-in for internal/shardedkv: a
// Store with shard locks and an engine-internal mutex, conforming
// one-shard-at-a-time paths, and the in-package violations the
// canonical order forbids — a shard lock taken while another is held,
// and a shard lock taken under an engine-internal lock, directly and
// through the counting wrapper. Edges are recorded once per class
// pair, so the conforming functions come first: a false edge there
// would be reported at their position, not hidden behind a violation's.
package storefix

import "locksfix"

type shard struct {
	lock locksfix.WLock
}

// Store stands in for the sharded store.
type Store struct {
	mu     locksfix.WLock
	shards []*shard
}

// tryLock stands in for a try helper: on success it returns holding
// sh.lock (ReturnsHeld in its exported summary).
func (sh *shard) tryLock(w *locksfix.Worker) bool {
	return sh.lock.TryAcquire(w)
}

// Get is the conforming sync path: one shard lock, bracketed.
func (s *Store) Get(w *locksfix.Worker, k uint64) {
	sh := s.shards[int(k)%len(s.shards)]
	sh.lock.Acquire(w)
	sh.lock.Release(w)
}

// logUnderShard is the conforming nesting: the engine-internal mutex
// taken inside a shard lock, innermost as the table demands.
func (s *Store) logUnderShard(w *locksfix.Worker, sh *shard) {
	sh.lock.Acquire(w)
	s.mu.Acquire(w)
	s.mu.Release(w)
	sh.lock.Release(w)
}

// lockDeferred holds one shard lock with the defer idiom: the deferred
// Release is an exit effect, folded into the summary's releases, so the
// summary returns nothing held.
func (s *Store) lockDeferred(w *locksfix.Worker, sh *shard) {
	sh.lock.Acquire(w)
	defer sh.lock.Release(w)
}

// scan visits every shard through lockDeferred, one at a time, and must
// stay clean. (A pass that left the deferred release out of
// lockDeferred's summary would see each visit still holding the
// previous shard's lock and flag the next one as nested.)
func (s *Store) scan(w *locksfix.Worker) {
	for _, sh := range s.shards {
		s.lockDeferred(w, sh)
	}
}

// combineOrServe exercises the try-branch refinement through a callee
// summary: when tryLock fails nothing is held, so taking another
// shard's lock on that path is clean — a flow-insensitive pass would
// flag it as nested.
func (s *Store) combineOrServe(w *locksfix.Worker, sh, other *shard) {
	if !sh.tryLock(w) {
		other.lock.Acquire(w)
		other.lock.Release(w)
		return
	}
	sh.lock.Release(w)
}

// adopt takes a second shard's lock while holding the first.
func (s *Store) adopt(w *locksfix.Worker, from, to *shard) {
	from.lock.Acquire(w)
	to.lock.Acquire(w) // want `shard lock acquired in adopt while a shard lock is already held; shard locks never nest`
	to.lock.Release(w)
	from.lock.Release(w)
}

// shardUnderMu takes a shard lock while holding the engine-internal
// mutex — backwards through the rank table.
func (s *Store) shardUnderMu(w *locksfix.Worker, sh *shard) {
	s.mu.Acquire(w)
	sh.lock.Acquire(w) // want `lock-order inversion in shardUnderMu: acquiring storefix\.shard\.lock \(shard lock\) while holding storefix\.Store\.mu \(engine-internal\)`
	sh.lock.Release(w)
	s.mu.Release(w)
}

// shardUnderWrapper takes a shard lock while holding the counting
// wrapper. The held-set tracks the wrapper's delegated class — the
// diagnostic names locksfix.Counted.inner (engine-internal rank), not
// the wrapper call site — so the inversion is caught through one level
// of delegation.
func (s *Store) shardUnderWrapper(w *locksfix.Worker, c *locksfix.Counted, sh *shard) {
	c.Acquire(w)
	sh.lock.Acquire(w) // want `lock-order inversion in shardUnderWrapper: acquiring storefix\.shard\.lock \(shard lock\) while holding locksfix\.Counted\.inner \(engine-internal\)`
	sh.lock.Release(w)
	c.Release(w)
}
