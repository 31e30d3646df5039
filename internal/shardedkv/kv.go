package shardedkv

import "repro/internal/core"

// KV is the one store surface both front ends implement: the plain
// synchronous Store and the combining AsyncStore. Consumers that do
// not care which concurrency front end they are handed — the network
// server's request loop, the benchmark driver, the model checker's
// harness — program against this and let the caller pick the
// implementation. A worker's class is fixed, so a caller that serves
// both classes keeps one worker per class and issues each operation on
// the worker of its class, as the network server does per connection.
//
// Contracts shared by all implementations:
//
//   - Every method takes the calling goroutine's own *core.Worker;
//     workers are not shareable.
//   - Put/MultiPut borrow value slices for the call: the store copies
//     what it keeps, so a caller may reuse its buffer as soon as the
//     call returns. The copy is made on the caller's goroutine before
//     the shard lock is taken, and only for engines that keep the slice
//     they are given (the btree copies into its leaf arenas itself).
//   - Range/MultiRange results are ascending-key and per-shard
//     consistent; fn never runs under a shard lock.
//   - Writes return an error exactly when their durability promise
//     failed: nil without durability configured, *DegradedError once
//     the owning shard's log has failed (degraded.go). A non-nil
//     error is never a durability ack, whatever the other results
//     say; reads keep serving on a degraded shard.
//   - Every write is applied before its call returns. Flush is the
//     durability barrier: with durability configured, every write
//     that returned before it is fsynced once it returns nil. The
//     fsync failures of bulk-policy (SyncAsync) acks surface here.
//   - MultiGet/MultiPut/Range/MultiRange take each touched shard lock
//     once, on either front end: an AsyncStore combines only point
//     ops, and its batches and scans are its Store's own calls.
//   - Close makes the handle (and for an AsyncStore, the pipeline)
//     unusable; it does NOT imply the underlying engines are gone — an
//     AsyncStore shares its Store, and closing it leaves the Store open.
//   - Stats snapshots the underlying Store's per-shard counters; both
//     front ends report the same store-level numbers.
type KV interface {
	Get(w *core.Worker, k uint64) ([]byte, bool)
	Put(w *core.Worker, k uint64, v []byte) (bool, error)
	Delete(w *core.Worker, k uint64) (bool, error)
	MultiGet(w *core.Worker, keys []uint64) ([][]byte, []bool)
	MultiPut(w *core.Worker, kvs []Pair) (int, error)
	Range(w *core.Worker, lo, hi uint64, fn func(k uint64, v []byte) bool)
	MultiRange(w *core.Worker, reqs []RangeReq) [][]Pair
	Flush(w *core.Worker) error
	Close(w *core.Worker)
	Stats() []ShardStats
}

// The two front ends below are the complete implementation set; the
// asserts keep interface drift a compile error rather than a runtime
// surprise in whichever consumer noticed last.
var (
	_ KV = (*Store)(nil)
	_ KV = (*AsyncStore)(nil)
)
