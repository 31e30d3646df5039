// Package storage declares the optional capability interfaces that
// storage engines may implement beyond shardedkv's core Engine
// surface. Callers discover capabilities by interface assertion — the
// add-an-engine recipe in ARCHITECTURE.md calls this the capability
// pattern: no type-switches on concrete engines, no registry; an
// engine opts into a fast path by implementing the method set, and
// every caller degrades gracefully when the assertion fails.
//
// Current capabilities:
//
//   - Snapshotter/Snapshot: a stable view that can be read after the
//     shard lock is released, plus a bulk Restore load for recovery.
//     Checkpointing uses it to dump shard state without stalling
//     writers; engines without it get a full dump taken under the
//     shard lock instead.
//   - Compactor: fold storage to its minimal footprint before a
//     checkpoint dump (the LSM's major compaction).
package storage

// Snapshot is a stable, point-in-time view of an engine's live
// contents. Range may be called without any external synchronisation
// — the view is immutable. Release returns the snapshot's resources
// and must be called exactly once, under the same external
// synchronisation (shard lock) as the Snapshot call that produced it,
// because engines may keep reference counts that are not themselves
// thread-safe.
type Snapshot interface {
	// Range calls fn for every live pair in ascending key order until
	// fn returns false.
	Range(fn func(k uint64, v []byte) bool)
	// Release unpins the snapshot. Call under the shard lock.
	Release()
}

// Snapshotter is implemented by engines that can produce a stable
// snapshot cheaply (without copying the data set) and bulk-load state
// during recovery. Snapshot must be called under the engine's
// external synchronisation (the shard lock); the returned view is
// then safe to read after the lock is dropped.
type Snapshotter interface {
	Snapshot() Snapshot
	// Restore bulk-merges pairs from src into the engine, with
	// restored pairs shadowing any existing value for the same key.
	// src streams pairs in arbitrary order. Like all mutations it
	// requires external synchronisation, but recovery calls it before
	// the store is published, so in practice it runs single-threaded.
	Restore(src func(yield func(k uint64, v []byte) bool))
}

// Compactor is implemented by engines that can fold their storage to
// a minimal footprint (dropping tombstones and shadowed versions).
// Checkpointing calls it before a snapshot dump so the checkpoint
// file reflects the compacted state. Requires the shard lock.
type Compactor interface {
	Compact()
}
