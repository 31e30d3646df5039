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

// The grouped batch path, pinned: a MultiGet/MultiPut crosses the
// pipeline as one request per touched shard (pipeline.go: batch, route,
// execMany), and these tests hold down what that must not change —
// batch order, degraded shards, ring overflow, group commit — and what
// it must: counters count keys, requests stay under the key cap,
// grouping allocates nothing.

// routed groups kvs (or keys, when kvs is nil) without submitting: the
// requests exactly as MultiPut/MultiGet would enqueue them.
func routed(a *AsyncStore, keys []uint64, kvs []Pair) *batch {
	if kvs != nil {
		b := a.newBatch(opMultiPut)
		b.kvs = kvs
		for i := range kvs {
			a.route(b, kvs[i].Key, i)
		}
		return b
	}
	b := a.newBatch(opMultiGet)
	b.keys, b.vals, b.oks = keys, make([][]byte, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		a.route(b, k, i)
	}
	return b
}

// TestAsyncMultiPutDuplicateKeysBatchOrder model-checks batch order on
// all four engines: batches drawn from a small key space (duplicates in
// most of them) and long enough that one shard's share spans several
// capped requests must leave every key at its LAST value in the batch
// and report exactly the model's insert count, while a second worker
// keeps the combiners busy on keys of its own.
func TestAsyncMultiPutDuplicateKeysBatchOrder(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			a := NewAsync(New(Config{Shards: 2, NewEngine: spec.New}), AsyncConfig{RingSize: 8})
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

// TestBatchRouteCapsRequests: however large the batch, no request
// carries more than batchKeyCap keys, every position lands in exactly
// one request, and the requests of one ring hold ascending positions in
// creation order (FIFO then keeps batch order).
func TestBatchRouteCapsRequests(t *testing.T) {
	st := New(Config{Shards: 3})
	a := NewAsync(st, AsyncConfig{})
	w := newTestWorker()
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	b := routed(a, keys, nil)
	seen := make([]bool, len(keys))
	last := map[*pipeShard]int{}
	for _, r := range b.reqs {
		if len(r.idx) == 0 || len(r.idx) > batchKeyCap {
			t.Fatalf("request carries %d keys, cap %d", len(r.idx), batchKeyCap)
		}
		for _, i := range r.idx {
			if seen[i] {
				t.Fatalf("position %d routed twice", i)
			}
			seen[i] = true
			if q := a.pipeOf(keys[i]); q != r.q {
				t.Fatalf("position %d grouped on the wrong ring", i)
			}
			if prev, ok := last[r.q]; ok && i < prev {
				t.Fatalf("ring sees position %d after %d", i, prev)
			}
			last[r.q] = i
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d not routed", i)
		}
	}
	if want := st.NumShards(); len(last) != want {
		t.Fatalf("batch touched %d rings, want %d", len(last), want)
	}
	a.runBatch(w, b)
	a.freeBatch(b)
}

// TestDrainChargesKeys: a drain counts a batch request's keys against
// its bound, so it stops within one request of it, and Combined counts
// the same keys while the executed cursor counts ring slots.
func TestDrainChargesKeys(t *testing.T) {
	const bound = 40
	st := New(Config{Shards: 1})
	a := NewAsync(st, AsyncConfig{})
	a.rings[0].bound.Store(bound)
	w := newTestWorker()
	kvs := make([]Pair, 8*batchKeyCap)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), 1)}
	}
	b := routed(a, nil, kvs)
	q := b.reqs[0].q
	for _, r := range b.reqs {
		if !q.ring.enqueue(r) {
			t.Fatal("ring full")
		}
	}
	total := 0
	for takes := 0; total < len(kvs); takes++ {
		var pend []*request
		q.sh.lock.Acquire(w)
		n := a.drain(w, q, &pend)
		q.sh.lock.Release(w)
		if n >= bound+batchKeyCap || (total+n < len(kvs) && n < bound) {
			t.Fatalf("drain %d applied %d keys: bound %d, key cap %d", takes, n, bound, batchKeyCap)
		}
		total += n
	}
	if got := q.combined.Load(); got != uint64(len(kvs)) {
		t.Fatalf("combined = %d, want the %d keys", got, len(kvs))
	}
	if got := q.executed.Load(); got != uint64(len(b.reqs)) {
		t.Fatalf("executed = %d, want the %d ring slots", got, len(b.reqs))
	}
	a.awaitAll(w, b.reqs, a.putReq)
	a.freeBatch(b)
}

// TestBatchCountersCountKeys: CombineStats.Combined and ShardStats
// Gets/Puts count keys, BatchLocks and LockTakes at most one per
// request.
func TestBatchCountersCountKeys(t *testing.T) {
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	w := newTestWorker()
	kvs := make([]Pair, 64)
	keys := make([]uint64, len(kvs))
	for i := range kvs {
		keys[i] = uint64(i)
		kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], 1)}
	}
	if ins, err := a.MultiPut(w, kvs); ins != len(kvs) || err != nil {
		t.Fatalf("MultiPut = %d, %v", ins, err)
	}
	a.MultiGet(w, keys)
	ss, cs := st.AggregateStats(), a.AggregateCombineStats()
	if ss.Puts != 64 || ss.Gets != 64 || cs.Combined != 128 {
		t.Fatalf("Puts %d, Gets %d, Combined %d; want 64, 64, 128", ss.Puts, ss.Gets, cs.Combined)
	}
	// 16 keys per shard: one request per shard and batch.
	if ss.BatchLocks != 8 || cs.LockTakes == 0 || cs.LockTakes > 8 {
		t.Fatalf("BatchLocks %d, LockTakes %d; want 8 and at most 8", ss.BatchLocks, cs.LockTakes)
	}
}

// TestBatchRingOverflowKeepsProgramOrder: one shard, a two-slot ring
// and a batch of three capped requests whose last pair rewrites key 0.
// The first two requests fill the ring and the third overflows into the
// direct path, which must drive its queued predecessors first — or the
// batch's earlier write to key 0 lands last. Once the caller has
// returned, every ring's executed cursor has reached its tail: nothing
// is left queued, which is what lets Flush and Close skip the rings.
func TestBatchRingOverflowKeepsProgramOrder(t *testing.T) {
	st := New(Config{Shards: 1})
	a := NewAsync(st, AsyncConfig{RingSize: 2})
	w := newTestWorker()
	kvs := make([]Pair, 3*batchKeyCap)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), 1)}
	}
	kvs[len(kvs)-1] = Pair{Key: 0, Value: verValue(0, 2)}
	if ins, err := a.MultiPut(w, kvs); ins != len(kvs)-1 || err != nil {
		t.Fatalf("MultiPut = %d, %v; want %d new keys", ins, err, len(kvs)-1)
	}
	if v, _ := a.Get(w, 0); !bytes.Equal(v, verValue(0, 2)) {
		t.Fatalf("key 0 = %x; the direct request overtook its queued predecessors", v)
	}
	if cs := a.AggregateCombineStats(); cs.Direct == 0 {
		t.Fatal("a two-slot ring never overflowed into the direct path")
	}
	for i, q := range a.rings {
		if ex, tail := q.executed.Load(), q.ring.tailPos(); ex != tail {
			t.Fatalf("ring %d: executed %d, tail %d after every caller returned", i, ex, tail)
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
		if !IsDegraded(err) || !errors.Is(err, fault.ErrInjected) || st.DegradedShards() != 1 {
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

// TestBatchSteadyStateAllocs: grouping, the requests, their index
// slices and the wait allocate nothing once the pools are warm —
// MultiGet pays for the two slices it returns, MultiPut for nothing.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a := NewAsync(New(Config{Shards: 16}), AsyncConfig{})
	for _, class := range []core.Class{core.Big, core.Little} {
		w := core.NewWorker(core.WorkerConfig{Class: class})
		kvs := make([]Pair, 16)
		keys := make([]uint64, len(kvs))
		for i := range kvs {
			keys[i] = uint64(i) * 31
			kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], 1)}
		}
		if got := testing.AllocsPerRun(200, func() { a.MultiGet(w, keys) }); got != 2 {
			t.Errorf("%v MultiGet of 16: %v allocations per call, want 2 (vals, ok)", class, got)
		}
		if got := testing.AllocsPerRun(200, func() { a.MultiPut(w, kvs) }); got > 1 {
			t.Errorf("%v MultiPut of 16: %v allocations per call, want at most 1", class, got)
		}
	}
}
