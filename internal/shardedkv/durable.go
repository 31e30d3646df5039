package shardedkv

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file wires the per-shard write-ahead log (internal/wal) into
// the store. The shape follows the combining pipeline's asymmetry
// argument one layer down: the combiner already batches up to
// maxDrain ops under one lock take, so durability rides the same
// batch — records are appended (buffered, no fsync) while the shard
// lock is held and ONE group-commit fsync runs after release, with
// every waiter of the batch piggybacking on it. The plain Store gets
// the same economics from wal.Commit's leader election: concurrent
// writers' commits collapse into one in-flight sync.
//
// Sync policy is per SLO class, riding the PR 5 class plumbing:
// interactive (big-class) writes wait for the group commit, bulk
// (little-class) writes ack after the buffered append and become
// durable with a later batch, a Flush, or Close. See syncWaitFor.
//
// The on-disk layout is generation-based:
//
//	dir/CURRENT            — "gen-N\n", flipped by atomic rename
//	dir/gen-N/shard-<id>/  — one wal.Log directory per shard
//
// Recovery (openDurable) replays the CURRENT generation's shard
// streams in ascending shard id into the fresh store's engines,
// checkpoints the result into a NEW generation, flips CURRENT, and
// deletes the old one — so a crash at any recovery point restarts
// cleanly from whichever generation CURRENT names. Per-key
// last-write-wins needs no fence records: placement is fixed while a
// generation is written, so every record of a key sits in one shard
// stream, in log order. Replay routes each record by its key, so a
// store reopened with a different shard count still lands every key on
// its owner.

// SyncPolicy says when a write acks relative to its group commit.
type SyncPolicy uint8

const (
	// SyncDefault resolves to the class default: interactive waits,
	// bulk acks asynchronously.
	SyncDefault SyncPolicy = iota
	// SyncWait completes the write only after its record is fsynced
	// (riding the batch's single group commit).
	SyncWait
	// SyncAsync completes the write after the buffered append; the
	// record becomes durable with a later group commit, Flush, or
	// Close. A crash may lose async-acked writes (never the per-key
	// order of what survives).
	SyncAsync
)

// DurabilityConfig enables the per-shard WAL.
type DurabilityConfig struct {
	// Dir is the log root. If it holds a previous run's generation,
	// New replays it (recovery) before serving.
	Dir string
	// SegmentBytes is the per-shard segment rotation threshold
	// (0 = the wal package default).
	SegmentBytes int64
	// Interactive and Bulk pick each SLO class's sync policy;
	// SyncDefault means interactive=SyncWait, bulk=SyncAsync. The
	// kvserver wire class maps to these end-to-end (class byte →
	// the connection's worker of that class → this policy).
	Interactive, Bulk SyncPolicy
	// FS overrides the filesystem every shard log writes through
	// (nil = the real one). wal.FaultFS threads fault injection in:
	// the degraded-mode tests and cmd/kvserver's -faults flag use it.
	FS wal.FS
}

// durability is the store-side state behind Config.Durability.
type durability struct {
	root   string // config Dir
	genDir string // current generation's directory
	opts   wal.Options
	// wait[class] says whether a write of that class blocks on group
	// commit (indexed by core.Class: Big = interactive, Little = bulk).
	wait [2]bool

	// ckptMu serialises checkpoints; it also serialises every
	// Snapshot/Release pair, which is the external synchronisation
	// storage.Snapshot requires for its refcount.
	ckptMu sync.Mutex
}

// resolveWait maps a class's configured policy to wait-or-not.
func resolveWait(p SyncPolicy, def bool) bool {
	switch p {
	case SyncWait:
		return true
	case SyncAsync:
		return false
	default:
		return def
	}
}

// syncWaitFor reports whether a write by w (under its class) must
// wait for group commit.
func (s *Store) syncWaitFor(w *core.Worker) bool {
	if s.dur == nil {
		return false
	}
	return s.dur.wait[w.Class()]
}

// shardWalDir names shard id's log directory inside gen.
func shardWalDir(gen string, id int) string {
	return filepath.Join(gen, fmt.Sprintf("shard-%d", id))
}

const currentFile = "CURRENT"

// readCurrentGen returns the generation CURRENT names (0 = none).
func readCurrentGen(root string) (int, error) {
	data, err := os.ReadFile(filepath.Join(root, currentFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	name := strings.TrimSpace(string(data))
	n, err := strconv.Atoi(strings.TrimPrefix(name, "gen-"))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("shardedkv: malformed %s: %q", currentFile, name)
	}
	return n, nil
}

// writeCurrentGen atomically points CURRENT at gen n, writing through
// fs. openDurable passes the real filesystem, never DurabilityConfig.FS,
// so fault rules that count the shard logs' calls see only those.
func writeCurrentGen(fs wal.FS, root string, n int) error {
	tmp := filepath.Join(root, currentFile+".tmp")
	f, err := fs.CreateTrunc(tmp)
	if err != nil {
		return err
	}
	if _, err = fmt.Fprintf(f, "gen-%d\n", n); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(root, currentFile)); err != nil {
		return err
	}
	return fs.SyncDir(root)
}

func genDirName(root string, n int) string {
	return filepath.Join(root, fmt.Sprintf("gen-%d", n))
}

// openDurable is called from New after the shards are built but
// before the store is published: it replays the previous generation
// (if any) into the engines, opens this generation's logs via the
// shards already created, checkpoints the recovered state, and flips
// CURRENT. Single-threaded — nothing else can see the store yet.
func openDurable(s *Store, cfg *DurabilityConfig) error {
	oldGen, err := readCurrentGen(cfg.Dir)
	if err != nil {
		return err
	}
	if oldGen > 0 {
		if rerr := s.replayGeneration(genDirName(cfg.Dir, oldGen)); rerr != nil {
			return rerr
		}
		// Checkpoint the recovered state into the new generation so the
		// old one's files carry no information the new one lacks.
		if cerr := s.checkpointAll(); cerr != nil {
			return cerr
		}
	}
	if werr := writeCurrentGen(wal.OSFS{}, cfg.Dir, oldGen+1); werr != nil {
		return werr
	}
	// Every generation but the live one is garbage: older ones are
	// fully checkpointed into this one, newer ones are debris from a
	// crash mid-recovery that never flipped CURRENT.
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return err
	}
	live := fmt.Sprintf("gen-%d", oldGen+1)
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() != live {
			if err := os.RemoveAll(filepath.Join(cfg.Dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayGeneration streams every shard directory of gen (ascending
// shard id) into the unpublished store's engines. Checkpoint records of one shard hold
// distinct keys, so they are buffered per target shard and bulk-loaded
// through the storage.Snapshotter capability where the engine has it;
// segment records apply one by one in log order.
func (s *Store) replayGeneration(gen string) error {
	ents, err := os.ReadDir(gen)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var ids []int
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		if id, perr := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-")); perr == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		dir := shardWalDir(gen, id)
		// Buffer the checkpoint prefix per target shard for bulk load;
		// everything after the checkpoint applies directly.
		type batch struct {
			keys []uint64
			vals [][]byte
		}
		ckpt := map[*shard]*batch{}
		flush := func() {
			for sh, b := range ckpt {
				if sn, ok := sh.eng.(storage.Snapshotter); ok {
					bb := b
					sn.Restore(func(yield func(k uint64, v []byte) bool) {
						for i, k := range bb.keys {
							if !yield(k, bb.vals[i]) {
								return
							}
						}
					})
				} else {
					for i, k := range b.keys {
						sh.eng.Put(k, b.vals[i])
					}
				}
			}
			clear(ckpt)
		}
		flushed := false
		_, err := wal.Replay(dir, func(kind wal.Kind, key uint64, val []byte, fromCkpt bool) error {
			sh := s.shardFor(key)
			if fromCkpt {
				b := ckpt[sh]
				if b == nil {
					b = &batch{}
					ckpt[sh] = b
				}
				b.keys = append(b.keys, key)
				b.vals = append(b.vals, append([]byte(nil), val...))
				return nil
			}
			if !flushed {
				// The checkpoint prefix is over; land it before any
				// segment record so log order is preserved.
				flushed = true
				flush()
			}
			if kind == wal.KindDelete {
				sh.eng.Delete(key)
			} else {
				// val is borrowed for the call, as a Put's value is.
				sh.eng.Put(key, s.owned(val))
			}
			return nil
		})
		if err != nil {
			return err
		}
		flush()
	}
	return nil
}

// checkpointAll rotates and checkpoints every shard. Pre-publish only
// (no locks); the concurrent path is Store.Checkpoint.
func (s *Store) checkpointAll() error {
	for _, sh := range s.shards {
		if sh.wal == nil {
			continue
		}
		boundary, err := sh.wal.Rotate()
		if err != nil {
			return err
		}
		eng := sh.eng
		if err := sh.wal.WriteCheckpoint(boundary, func(emit func(k uint64, v []byte) error) error {
			var werr error
			eng.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
				werr = emit(k, v)
				return werr == nil
			})
			return werr
		}); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint dumps every shard's state into its log directory
// and truncates the segments the dump covers. Per shard it holds the
// lock only for the cheap half — segment rotation plus snapshot
// acquisition (storage.Snapshotter) or, for engines without that
// capability, an in-memory full dump — and writes the checkpoint file
// (the fsync half) after release. Checkpoints serialise on an
// internal mutex; concurrent writers are never blocked beyond the
// ordinary shard-lock hold.
func (s *Store) Checkpoint(w *core.Worker) error {
	lockFree(w, "wal.Log.WriteCheckpoint")
	if s.dur == nil {
		return nil
	}
	s.dur.ckptMu.Lock()
	defer s.dur.ckptMu.Unlock()

	type task struct {
		sh       *shard
		boundary uint64
		snap     storage.Snapshot
		dump     []Pair
	}
	var tasks []task
	var lockErr error
	s.forEachShard(w, func(sh *shard) {
		if sh.wal == nil || lockErr != nil {
			return
		}
		boundary, err := sh.wal.Rotate()
		if err != nil {
			lockErr = err
			return
		}
		t := task{sh: sh, boundary: boundary}
		if c, ok := sh.eng.(storage.Compactor); ok {
			c.Compact()
		}
		if sn, ok := sh.eng.(storage.Snapshotter); ok {
			t.snap = sn.Snapshot()
		} else {
			sh.eng.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
				t.dump = append(t.dump, Pair{Key: k, Value: v})
				return true
			})
		}
		tasks = append(tasks, t)
	})

	var err error
	for _, t := range tasks {
		werr := t.sh.wal.WriteCheckpoint(t.boundary, func(emit func(k uint64, v []byte) error) error {
			var ierr error
			if t.snap != nil {
				t.snap.Range(func(k uint64, v []byte) bool {
					ierr = emit(k, v)
					return ierr == nil
				})
			} else {
				for _, kv := range t.dump {
					if ierr = emit(kv.Key, kv.Value); ierr != nil {
						break
					}
				}
			}
			return ierr
		})
		if t.snap != nil {
			t.snap.Release()
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	if lockErr != nil && err == nil {
		err = lockErr
	}
	return err
}

// Flush is the durability barrier of the plain store: it group-
// commits every record appended so far on every shard log.
// Async-acked (bulk-policy, SyncAsync) writes are durable once it
// returns nil. A sync failure degrades the owning shard and is
// reported here — this is where those writes' fsync errors surface.
// Without Config.Durability it is a no-op.
func (s *Store) Flush(w *core.Worker) error {
	return s.syncLogs(w)
}

// syncLogs fsyncs every shard log, degrading the shard behind any log
// whose sync fails, and returns the first failure. w may hold no shard
// lock.
func (s *Store) syncLogs(w *core.Worker) error {
	lockFree(w, "wal.Log.Sync")
	if s.dur == nil {
		return nil
	}
	var first error
	for _, sh := range s.shards {
		if err := sh.wal.Sync(); err != nil {
			de := s.degrade(sh, err)
			if first == nil {
				first = de
			}
		}
	}
	return first
}

// Close syncs and closes every shard log; the store must be quiesced.
// I/O errors are sticky inside the logs and surface through Checkpoint
// and Flush — Close itself is best-effort, matching the KV interface
// shape.
func (s *Store) Close(w *core.Worker) {
	lockFree(w, "wal.Log.Close")
	if s.dur == nil {
		return
	}
	for _, sh := range s.shards {
		_ = sh.wal.Close()
	}
}

// WalStats aggregates the wal counters across every shard log. Zero
// when durability is off. Appended/Syncs is the ops-per-fsync the
// group commit exists to raise above 1.
func (s *Store) WalStats() wal.Stats {
	var agg wal.Stats
	if s.dur == nil {
		return agg
	}
	for _, sh := range s.shards {
		agg.Add(sh.wal.Stats())
	}
	return agg
}

// CrashDrop simulates kill -9 for the crash-point recovery tests and
// the chaos harness: every log drops its user-space buffers and closes
// without a final sync. Test hook; see wal.Log.CrashDrop.
func (s *Store) CrashDrop() {
	if s.dur == nil {
		return
	}
	for _, sh := range s.shards {
		sh.wal.CrashDrop()
	}
}
