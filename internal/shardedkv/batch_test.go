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
// batch order, split forwarding, degraded shards, ring overflow, group
// commit — and what it must: counters count keys, requests stay under
// the key cap, grouping allocates nothing.

// routed groups kvs (or keys, when kvs is nil) under map m without
// submitting: the requests exactly as MultiPut/MultiGet would enqueue
// them.
func routed(a *AsyncStore, m *shardMap, keys []uint64, kvs []Pair) *batch {
	if kvs != nil {
		b := a.newBatch(opMultiPut, m)
		b.kvs = kvs
		for i := range kvs {
			a.route(b, m, kvs[i].Key, i)
		}
		return b
	}
	b := a.newBatch(opMultiGet, m)
	b.keys, b.vals, b.oks = keys, make([][]byte, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		a.route(b, m, k, i)
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
	st := New(Config{Shards: 3, Reshard: manualReshard()})
	a := NewAsync(st, AsyncConfig{})
	w := newTestWorker()
	st.ForceSplit(w, 1) // one base group now chains two shards
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	m := st.smap.Load()
	b := routed(a, m, keys, nil)
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
			if q := m.locate(hashOf(keys[i])).pipe.Load(); q != r.q {
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
	if want := len(m.shards); len(last) != want {
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
	a := NewAsync(st, AsyncConfig{MaxBatch: bound})
	w := newTestWorker()
	kvs := make([]Pair, 8*batchKeyCap)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), 1)}
	}
	b := routed(a, st.smap.Load(), nil, kvs)
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

// TestBatchRingOverflowKeepsProgramOrder: with a two-slot ring a
// 4 096-key batch overflows into the direct path and splits every
// shard's share into capped requests; a same-worker PutAsync queued
// just before the batch must still apply BEFORE the batch's write to
// that key.
func TestBatchRingOverflowKeepsProgramOrder(t *testing.T) {
	st := New(Config{Shards: 2})
	a := NewAsync(st, AsyncConfig{RingSize: 2})
	w := newTestWorker()
	kvs := make([]Pair, 4096)
	for round := uint64(1); round <= 20; round++ {
		for i := range kvs {
			kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), round)}
		}
		// Predecessors on both rings, one of them late in batch order.
		for _, k := range []uint64{0, 1, 2, 3, 4000, 4001} {
			a.PutAsync(w, k, verValue(k, 1<<40+round))
		}
		if _, err := a.MultiPut(w, kvs); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{0, 1, 2, 3, 4000, 4001, 17} {
			if v, ok := a.Get(w, k); !ok || !bytes.Equal(v, verValue(k, round)) {
				t.Fatalf("round %d: key %d = %x; the batch's write was overtaken", round, k, v)
			}
		}
	}
	if cs := a.AggregateCombineStats(); cs.Direct == 0 {
		t.Fatal("a two-slot ring never overflowed into the direct path")
	}
}

// splitUnder returns a durable store whose single seed shard has split
// twice AFTER the returned map snapshot was taken: requests routed
// under the stale snapshot land on the retired root's ring and are
// forwarded, one of the root's children being retired itself.
func splitUnder(t *testing.T, dir string) (*Store, *AsyncStore, *core.Worker, *shardMap) {
	t.Helper()
	cfg := durCfg(dir, nil)
	cfg.Shards = 1
	st := New(cfg)
	a := NewAsync(st, AsyncConfig{})
	w := newTestWorker()
	stale := st.smap.Load()
	if !st.ForceSplit(w, 0) || !st.ForceSplit(w, 0) {
		t.Fatal("forced split refused")
	}
	if got := st.NumShards(); got != 3 {
		t.Fatalf("%d live shards after two splits, want 3", got)
	}
	return st, a, w, stale
}

// TestForwardedBatchOneMarkPerChild executes one sub-batch through a
// retired shard's forward record: every pair lands on the live child
// that owns its key, the request owes exactly one group commit per
// child log it wrote, and the retired logs are not written.
func TestForwardedBatchOneMarkPerChild(t *testing.T) {
	st, a, w, stale := splitUnder(t, t.TempDir())
	defer st.CrashDrop()
	kvs := make([]Pair, batchKeyCap)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(i), Value: verValue(uint64(i), 1)}
	}
	b := routed(a, stale, nil, kvs)
	if len(b.reqs) != 1 {
		t.Fatalf("%d requests for one retired ring under the cap", len(b.reqs))
	}
	r := b.reqs[0]
	root := stale.shards[0]
	before := root.wal.Stats().Appended
	a.execForwarded(w, root.forward.Load(), r)

	live := st.smap.Load()
	if r.err != nil || r.ins != len(kvs) || len(r.marks) != len(live.shards) {
		t.Fatalf("forwarded sub-batch: err %v, inserted %d, %d marks; want %d inserts, one mark per %d children",
			r.err, r.ins, len(r.marks), len(kvs), len(live.shards))
	}
	for _, mk := range r.marks {
		if mk.sh.forward.Load() != nil || mk.lsn != mk.sh.wal.Stats().Appended {
			t.Fatalf("mark on shard %d at LSN %d: want a live child's last record (%d)", mk.sh.id, mk.lsn, mk.sh.wal.Stats().Appended)
		}
	}
	if root.wal.Stats().Appended != before {
		t.Fatal("a forwarded write was logged on the retired shard")
	}
	for _, kv := range kvs {
		if v, ok := live.locate(hashOf(kv.Key)).eng.Get(kv.Key); !ok || !bytes.Equal(v, kv.Value) {
			t.Fatalf("key %d is not on the child that owns it", kv.Key)
		}
	}
	a.putReq(r)
	a.freeBatch(b)
}

// TestStaleBatchDrainsFromRetiredRing runs whole batches routed under a
// pre-split snapshot: submit finds the ring retired and drives it dry,
// so the sub-batches drain through the forward record — reads and
// writes answer as if the split had not happened, and a sync-wait batch
// pays at most one fsync per live child.
func TestStaleBatchDrainsFromRetiredRing(t *testing.T) {
	st, a, w, stale := splitUnder(t, t.TempDir())
	defer st.CrashDrop()
	kvs := make([]Pair, 100) // four requests on the one retired ring
	keys := make([]uint64, len(kvs))
	for i := range kvs {
		keys[i] = uint64(i % 60) // duplicates: batch order must hold
		kvs[i] = Pair{Key: keys[i], Value: verValue(keys[i], uint64(i))}
	}
	before := st.WalStats()
	b := routed(a, stale, nil, kvs)
	b.syncWait = true
	for _, r := range b.reqs {
		r.syncWait = true
	}
	a.runBatch(w, b)
	if b.inserted != 60 || b.err != nil {
		t.Fatalf("stale MultiPut = %d, %v; want 60 inserts", b.inserted, b.err)
	}
	a.freeBatch(b)
	after := st.WalStats()
	if d := after.Appended - before.Appended; d != uint64(len(kvs)) {
		t.Fatalf("%d records appended for %d pairs", d, len(kvs))
	}
	// Each of the four requests commits each child log at most once.
	if d := after.Syncs - before.Syncs; d == 0 || d > uint64(4*st.NumShards()) {
		t.Fatalf("%d fsyncs for four forwarded requests over %d children", d, st.NumShards())
	}
	g := routed(a, stale, keys, nil)
	a.runBatch(w, g)
	for i, k := range keys {
		want := verValue(k, uint64(i))
		if i+60 < len(kvs) {
			want = verValue(k, uint64(i+60))
		}
		if !g.oks[i] || !bytes.Equal(g.vals[i], want) {
			t.Fatalf("stale MultiGet position %d (key %d) = %x,%v; want the batch's last write %x", i, k, g.vals[i], g.oks[i], want)
		}
	}
	a.freeBatch(g)
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
		sick := st.smap.Load().locate(hashOf(0))
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
			if st.smap.Load().locate(hashOf(k)) == sick {
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
