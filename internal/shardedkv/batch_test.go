package shardedkv

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/prng"
)

// The grouped batch path, pinned: a MultiGet/MultiPut groups its
// positions by shard and takes each touched shard lock once, on both
// front ends (the AsyncStore's batches are the Store's own calls). These
// tests hold down batch order, degraded shards, group commit, the
// counters and grouping's allocations.

// TestAsyncMultiPutDuplicateKeysBatchOrder model-checks batch order on
// all four engines: batches of up to 200 pairs drawn from a small key
// space (duplicates in most of them) must leave every key at its LAST
// value in the batch and report exactly the model's insert count, while
// a second worker writes keys of its own on the same shards.
func TestAsyncMultiPutDuplicateKeysBatchOrder(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			a := NewAsync(New(Config{Shards: 2, NewEngine: spec.New}), AsyncConfig{})
			var wg sync.WaitGroup
			for wi := 0; wi < 2; wi++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					class := core.Big
					if wi == 1 {
						class = core.Little
					}
					w := core.NewWorker(core.WorkerConfig{Class: class})
					rng := prng.NewSplitMix64(uint64(wi) + 77)
					model := map[uint64][]byte{}
					ver := uint64(0)
					for round := 0; round < rounds; round++ {
						kvs := make([]Pair, 1+rng.Uint64()%200)
						wantIns := 0
						for i := range kvs {
							k := (rng.Uint64()%48)*2 + uint64(wi)
							ver++
							kvs[i] = Pair{Key: k, Value: verValue(k, ver)}
							if model[k] == nil {
								wantIns++
							}
							model[k] = kvs[i].Value
						}
						if ins, err := a.MultiPut(w, kvs); ins != wantIns || err != nil {
							t.Errorf("worker %d round %d: MultiPut = %d, %v; model inserted %d", wi, round, ins, err, wantIns)
							return
						}
						keys := make([]uint64, 0, len(model))
						for k := range model {
							keys = append(keys, k)
						}
						vals, oks := a.MultiGet(w, keys)
						for i, k := range keys {
							if !oks[i] || !bytes.Equal(vals[i], model[k]) {
								t.Errorf("worker %d round %d: key %d = %x,%v; the batch's last write was %x", wi, round, k, vals[i], oks[i], model[k])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestBatchCountersCountKeys: a 64-key MultiPut and MultiGet over 4
// shards count 64 Puts, 64 Gets and one BatchLocks per batch and touched
// shard, 8, on both front ends; on the AsyncStore neither batch enters
// the queues, so the combining counters stay at 0.
func TestBatchCountersCountKeys(t *testing.T) {
	for name, kv := range frontEnds(t, Config{Shards: 4}) {
		w := newTestWorker()
		kvs := make([]Pair, 64)
		keys := make([]uint64, len(kvs))
		for i := range kvs {
			keys[i] = uint64(i)
			kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], 1)}
		}
		if ins, err := kv.MultiPut(w, kvs); ins != len(kvs) || err != nil {
			t.Fatalf("%s: MultiPut = %d, %v", name, ins, err)
		}
		kv.MultiGet(w, keys)
		st, _ := kv.(*Store)
		if a, ok := kv.(*AsyncStore); ok {
			st = a.Store()
			if cs := a.AggregateCombineStats(); cs.LockTakes != 0 || cs.Combined != 0 {
				t.Errorf("%s: LockTakes %d, Combined %d; batches must not enter the queues", name, cs.LockTakes, cs.Combined)
			}
		}
		if ss := st.AggregateStats(); ss.Puts != 64 || ss.Gets != 64 || ss.BatchLocks != 8 {
			t.Errorf("%s: Puts %d, Gets %d, BatchLocks %d; want 64, 64, 8", name, ss.Puts, ss.Gets, ss.BatchLocks)
		}
	}
}

// TestSyncWaitBatchOneFsyncPerShard: a sync-wait MultiPut over k shards
// raises wal.Stats.Syncs by at most k — each shard's share records one
// (log, LSN) and rides one Commit.
func TestSyncWaitBatchOneFsyncPerShard(t *testing.T) {
	st := New(durCfg(t.TempDir(), nil))
	defer st.CrashDrop()
	a := NewAsync(st, AsyncConfig{})
	w := newTestWorker()
	for round := uint64(1); round <= 10; round++ {
		kvs := make([]Pair, 64)
		for i := range kvs {
			kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), round)}
		}
		before := st.WalStats()
		if _, err := a.MultiPut(w, kvs); err != nil {
			t.Fatal(err)
		}
		after := st.WalStats()
		if d := after.Syncs - before.Syncs; d == 0 || d > uint64(st.NumShards()) {
			t.Fatalf("round %d: %d fsyncs for one batch over %d shards", round, d, st.NumShards())
		}
		if d := after.Appended - before.Appended; d != uint64(len(kvs)) {
			t.Fatalf("round %d: %d records for %d pairs", round, d, len(kvs))
		}
	}
}

// TestBatchDegradedShardMidBatch: a shard that is (or turns) degraded
// while a batch is in flight fails its share with the typed error; the
// healthy shards' shares apply.
func TestBatchDegradedShardMidBatch(t *testing.T) {
	kvsAt := func(ver uint64) ([]Pair, []uint64) {
		kvs := make([]Pair, 64)
		keys := make([]uint64, len(kvs))
		for i := range kvs {
			keys[i] = uint64(i)
			kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], ver)}
		}
		return kvs, keys
	}
	t.Run("refused before the append", func(t *testing.T) {
		st := New(durCfg(t.TempDir(), nil))
		defer st.CrashDrop()
		a := NewAsync(st, AsyncConfig{})
		w := newTestWorker()
		v1, keys := kvsAt(1)
		if _, err := a.MultiPut(w, v1); err != nil {
			t.Fatal(err)
		}
		sick := st.shardFor(0)
		st.degrade(sick, errors.New("disk on fire"))
		v2, _ := kvsAt(2)
		_, err := a.MultiPut(w, v2)
		var de *DegradedError
		if !errors.As(err, &de) || de.Shard != sick.id {
			t.Fatalf("MultiPut over a degraded shard: %v, want its *DegradedError", err)
		}
		vals, _ := a.MultiGet(w, keys)
		for i, k := range keys {
			want := uint64(2)
			if st.shardFor(k) == sick {
				want = 1
			}
			if !bytes.Equal(vals[i], verValue(k, want)) {
				t.Fatalf("key %d = %x, want version %d (degraded shard refuses, healthy shards apply)", k, vals[i], want)
			}
		}
	})
	t.Run("commit fails", func(t *testing.T) {
		reg := fault.New(1)
		reg.MustAdd(fault.Rule{Point: "wal.fsync", Nth: 2, Act: fault.ActError})
		st := New(degCfg(t.TempDir(), reg))
		defer st.CrashDrop()
		a := NewAsync(st, AsyncConfig{})
		w := newTestWorker()
		v1, keys := kvsAt(1)
		_, err := a.MultiPut(w, v1)
		if !isDegraded(err) || !errors.Is(err, fault.ErrInjected) || st.DegradedShards() != 1 {
			t.Fatalf("MultiPut through a failing fsync: %v with %d shards degraded; want one typed failure", err, st.DegradedShards())
		}
		// Append-before-apply: every share reached memory, only the ack is withheld.
		vals, oks := a.MultiGet(w, keys)
		for i, k := range keys {
			if !oks[i] || !bytes.Equal(vals[i], verValue(k, 1)) {
				t.Fatalf("key %d = %x,%v after the failed commit", k, vals[i], oks[i])
			}
		}
	})
}

// TestBatchSteadyStateAllocs: grouping allocates nothing once its pool
// is warm, on both front ends — MultiGet pays for the two slices it returns, and MultiPut
// on the btree, which copies values into its leaf arenas, at most one
// object of overhead. The store is first loaded with 3 KiB values, so
// every leaf arena has room for all the measured overwrites and no
// compaction lands in the count. On hashkv, which keeps the slice it is
// given, MultiPut pays for exactly its 16 value copies, made before any
// shard lock, plus at most that one.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, e := range []struct {
		name   string
		engine func(int) Engine
		copies float64
	}{
		{"btree", func(int) Engine { return NewBTreeEngine() }, 0},
		{"hashkv", func(int) Engine { return NewHashEngine(256) }, 16},
	} {
		for name, kv := range frontEnds(t, Config{Shards: 16, NewEngine: e.engine}) {
			for _, class := range []core.Class{core.Big, core.Little} {
				w := core.NewWorker(core.WorkerConfig{Class: class})
				for k := uint64(0); k < 512; k++ {
					kv.Put(w, k, make([]byte, 3<<10))
				}
				kvs := make([]Pair, 16)
				keys := make([]uint64, len(kvs))
				for i := range kvs {
					keys[i] = uint64(i) * 31
					kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], 1)}
				}
				if got := testing.AllocsPerRun(200, func() { kv.MultiGet(w, keys) }); got != 2 {
					t.Errorf("%s %s %v MultiGet of 16: %v allocations per call, want 2 (vals, ok)", e.name, name, class, got)
				}
				got := testing.AllocsPerRun(200, func() { kv.MultiPut(w, kvs) })
				if got < e.copies || got > e.copies+1 {
					t.Errorf("%s %s %v MultiPut of 16: %v allocations per call, want %v value copies plus at most 1",
						e.name, name, class, got, e.copies)
				}
			}
		}
	}
}
