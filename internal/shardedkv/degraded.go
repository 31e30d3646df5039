package shardedkv

import "fmt"

// Degraded mode: when a shard's log fails (a failed append, group
// commit, or Flush-time sync), the shard flips read-only instead of
// panicking or silently dropping durability. The rules:
//
//   - Reads (Get/MultiGet/Range) keep serving from the in-memory
//     engine.
//   - Writes on the degraded shard fail fast with *DegradedError
//     (errors.As-able). A
//     write that was already applied but whose group commit failed
//     returns the error too — the caller got no durability ack, so
//     the write is indeterminate, never falsely acked.
//   - Async-acked (bulk-policy, SyncAsync) writes surface at the next
//     Flush, which syncs every log and reports the first failure.
//   - The flip is one-way: recovery is a restart, which replays the
//     durable prefix (wal.Replay truncates at the torn tail).
//
// The WAL's own sticky error (wal.Log poisons itself on the first I/O
// failure) guarantees the engine and the log cannot drift apart: once
// the log refuses appends, the shard refuses applies. Writes append
// to the log BEFORE touching the engine, so the in-memory state is
// always a prefix-consistent replay of the log.

// DegradedError is the typed failure every write on a degraded shard
// returns. Cause is the first I/O error that degraded the shard.
type DegradedError struct {
	Shard int
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shardedkv: shard %d degraded (read-only): %v", e.Shard, e.Cause)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// degrade flips sh read-only, first cause wins. Safe with or without
// the shard lock held (the flag is an atomic pointer), and safe to
// call concurrently from commit waiters racing the append path.
func (s *Store) degrade(sh *shard, cause error) *DegradedError {
	de := &DegradedError{Shard: sh.id, Cause: cause}
	if sh.degraded.CompareAndSwap(nil, de) {
		s.degradeEvents.Add(1)
		return de
	}
	return sh.degraded.Load()
}

// DegradedShards counts the shards that have flipped read-only over
// the store's lifetime. Zero on a healthy store; the soak harness and
// server stats watch it.
func (s *Store) DegradedShards() uint64 { return s.degradeEvents.Load() }
