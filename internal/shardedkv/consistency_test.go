package shardedkv

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
)

// newTestWorker returns a big-class worker (class is irrelevant for
// single-threaded tests; big avoids standby waits entirely).
func newTestWorker() *core.Worker {
	return core.NewWorker(core.WorkerConfig{Class: core.Big})
}

// value derives a deterministic value for key k at version ver.
func value(k uint64, ver int) []byte {
	return []byte(fmt.Sprintf("v%d-%x", ver, k))
}

// collectRange gathers st.Range output and verifies strict ascending
// key order as it goes.
func collectRange(t *testing.T, st *Store, w *core.Worker, lo, hi uint64) []Pair {
	t.Helper()
	var out []Pair
	st.Range(w, lo, hi, func(k uint64, v []byte) bool {
		if k < lo || k > hi {
			t.Fatalf("Range[%d,%d] emitted out-of-range key %d", lo, hi, k)
		}
		if len(out) > 0 && k <= out[len(out)-1].Key {
			t.Fatalf("Range[%d,%d] emitted %d after %d: out of order", lo, hi, k, out[len(out)-1].Key)
		}
		out = append(out, Pair{Key: k, Value: v})
		return true
	})
	return out
}

// sameKVs compares two ordered KV lists.
func sameKVs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestCrossEngineConsistency drives the same seeded op sequence
// through a store on each engine and demands identical results op by
// op and identical final state.
func TestCrossEngineConsistency(t *testing.T) {
	const (
		numShards = 8
		keyspace  = 1 << 10
		ops       = 20_000
	)
	specs := AllEngines()
	stores := make([]*Store, len(specs))
	for i, spec := range specs {
		stores[i] = New(Config{Shards: numShards, NewEngine: spec.New})
	}
	w := newTestWorker()
	rng := prng.NewSplitMix64(42)
	ver := 0
	for op := 0; op < ops; op++ {
		k := rng.Uint64() % keyspace
		switch rng.Uint64() % 5 {
		case 0: // put
			ver++
			v := value(k, ver)
			var want bool
			for i, st := range stores {
				got, _ := st.Put(w, k, v)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("op %d: Put(%d) inserted=%v on %s, %v on %s",
						op, k, want, specs[0].Name, got, specs[i].Name)
				}
			}
		case 1: // get
			var wantV []byte
			var wantOK bool
			for i, st := range stores {
				v, ok := st.Get(w, k)
				if i == 0 {
					wantV, wantOK = v, ok
				} else if ok != wantOK || !bytes.Equal(v, wantV) {
					t.Fatalf("op %d: Get(%d) = (%q,%v) on %s, (%q,%v) on %s",
						op, k, wantV, wantOK, specs[0].Name, v, ok, specs[i].Name)
				}
			}
		case 2: // delete
			var want bool
			for i, st := range stores {
				got, _ := st.Delete(w, k)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("op %d: Delete(%d) present=%v on %s, %v on %s",
						op, k, want, specs[0].Name, got, specs[i].Name)
				}
			}
		case 3: // range scan
			lo := k
			hi := lo + rng.Uint64()%128
			var want []Pair
			for i, st := range stores {
				got := collectRange(t, st, w, lo, hi)
				if i == 0 {
					want = got
				} else if !sameKVs(got, want) {
					t.Fatalf("op %d: Range[%d,%d] yields %d pairs on %s, %d on %s",
						op, lo, hi, len(want), specs[0].Name, len(got), specs[i].Name)
				}
			}
		default: // batched puts + batched gets
			n := int(rng.Uint64()%8) + 1
			kvs := make([]Pair, n)
			keys := make([]uint64, n)
			for j := range kvs {
				ver++
				bk := rng.Uint64() % keyspace
				kvs[j] = Pair{Key: bk, Value: value(bk, ver)}
				keys[j] = bk
			}
			var wantIns int
			for i, st := range stores {
				ins, _ := st.MultiPut(w, kvs)
				if i == 0 {
					wantIns = ins
				} else if ins != wantIns {
					t.Fatalf("op %d: MultiPut inserted %d on %s, %d on %s",
						op, wantIns, specs[0].Name, ins, specs[i].Name)
				}
			}
			var wantVals [][]byte
			var wantOKs []bool
			for i, st := range stores {
				vals, oks := st.MultiGet(w, keys)
				if i == 0 {
					wantVals, wantOKs = vals, oks
					continue
				}
				for j := range keys {
					if oks[j] != wantOKs[j] || !bytes.Equal(vals[j], wantVals[j]) {
						t.Fatalf("op %d: MultiGet key %d mismatch between %s and %s",
							op, keys[j], specs[0].Name, specs[i].Name)
					}
				}
			}
		}
	}
	// Final state: identical Len and identical contents over the whole
	// keyspace.
	wantLen := stores[0].Len(w)
	for i := 1; i < len(stores); i++ {
		if l := stores[i].Len(w); l != wantLen {
			t.Fatalf("final Len: %d on %s, %d on %s", wantLen, specs[0].Name, l, specs[i].Name)
		}
	}
	live := 0
	for k := uint64(0); k < keyspace; k++ {
		wantV, wantOK := stores[0].Get(w, k)
		if wantOK {
			live++
		}
		for i := 1; i < len(stores); i++ {
			v, ok := stores[i].Get(w, k)
			if ok != wantOK || !bytes.Equal(v, wantV) {
				t.Fatalf("final Get(%d): (%q,%v) on %s, (%q,%v) on %s",
					k, wantV, wantOK, specs[0].Name, v, ok, specs[i].Name)
			}
		}
	}
	if live != wantLen {
		t.Fatalf("final Len %d does not match live key count %d", wantLen, live)
	}
	// Final ordered view: a full-range scan on every engine must agree
	// pair-for-pair and cover exactly the live keys.
	wantScan := collectRange(t, stores[0], w, 0, ^uint64(0))
	if len(wantScan) != wantLen {
		t.Fatalf("full Range yielded %d pairs, Len says %d", len(wantScan), wantLen)
	}
	for i := 1; i < len(stores); i++ {
		if got := collectRange(t, stores[i], w, 0, ^uint64(0)); !sameKVs(got, wantScan) {
			t.Fatalf("final full Range differs between %s and %s", specs[0].Name, specs[i].Name)
		}
	}
}

// TestRangeConsistencyAfterDeletes is the shared ordered-Range check:
// interleaved puts and deletes (heavy enough to push the LSM through
// freezes and tombstone-dropping merges), then every engine must
// return identical ordered results for full and partial ranges.
func TestRangeConsistencyAfterDeletes(t *testing.T) {
	const keyspace = 1 << 9
	specs := AllEngines()
	stores := make([]*Store, len(specs))
	for i, spec := range specs {
		newEng := spec.New
		if spec.Name == "lsm" {
			// Small LSM memtables force the delete/range paths through
			// frozen runs and tombstone-dropping merges, not just the
			// memtable.
			newEng = func(sh int) Engine { return NewLSMEngine(uint64(sh)+1, 1<<9) }
		}
		stores[i] = New(Config{Shards: 8, NewEngine: newEng})
	}
	w := newTestWorker()
	rng := prng.NewSplitMix64(7)
	ref := map[uint64][]byte{}
	for op := 0; op < 30_000; op++ {
		k := rng.Uint64() % keyspace
		if rng.Uint64()%3 == 0 {
			for _, st := range stores {
				st.Delete(w, k)
			}
			delete(ref, k)
		} else {
			v := value(k, op)
			for _, st := range stores {
				st.Put(w, k, v)
			}
			ref[k] = v
		}
	}
	for _, span := range []struct{ lo, hi uint64 }{
		{0, ^uint64(0)},
		{0, keyspace / 2},
		{keyspace / 4, keyspace/4 + 63},
		{keyspace, 2 * keyspace}, // empty
	} {
		var want []Pair
		for i, st := range stores {
			got := collectRange(t, st, w, span.lo, span.hi)
			for _, kv := range got {
				if refV, ok := ref[kv.Key]; !ok || !bytes.Equal(refV, kv.Value) {
					t.Fatalf("%s: Range[%d,%d] key %d disagrees with reference",
						specs[i].Name, span.lo, span.hi, kv.Key)
				}
			}
			if i == 0 {
				want = got
				inRange := 0
				for k := range ref {
					if k >= span.lo && k <= span.hi {
						inRange++
					}
				}
				if len(want) != inRange {
					t.Fatalf("Range[%d,%d] yielded %d pairs, reference holds %d",
						span.lo, span.hi, len(want), inRange)
				}
			} else if !sameKVs(got, want) {
				t.Fatalf("Range[%d,%d] differs between %s and %s",
					span.lo, span.hi, specs[0].Name, specs[i].Name)
			}
		}
	}
}

// TestBatchEdgeSemantics pins the edge cases of the batched ops:
// duplicate keys within one MultiGet, and empty batches of every kind.
func TestBatchEdgeSemantics(t *testing.T) {
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 4, NewEngine: spec.New})
			w := newTestWorker()
			st.Put(w, 9, []byte("nine"))
			// Duplicate keys in one MultiGet: every occurrence answers.
			vals, oks := st.MultiGet(w, []uint64{9, 9, 1, 9})
			for _, i := range []int{0, 1, 3} {
				if !oks[i] || string(vals[i]) != "nine" {
					t.Fatalf("duplicate MultiGet slot %d = (%q, %v)", i, vals[i], oks[i])
				}
			}
			if oks[2] {
				t.Fatal("absent key reported present")
			}
			// Duplicate put+delete... a put batch where the same key is
			// inserted twice counts one insert (exercised in
			// TestMultiPutDuplicateKeysLastWins); empty batches are
			// no-ops that return aligned empties.
			if vals, oks := st.MultiGet(w, nil); len(vals) != 0 || len(oks) != 0 {
				t.Fatal("empty MultiGet must return empty slices")
			}
			if ins, _ := st.MultiPut(w, nil); ins != 0 {
				t.Fatalf("empty MultiPut inserted %d", ins)
			}
			before := st.AggregateStats()
			st.MultiGet(w, []uint64{})
			st.MultiPut(w, []Pair{})
			after := st.AggregateStats()
			if after.BatchLocks != before.BatchLocks {
				t.Fatalf("empty batches took %d shard locks", after.BatchLocks-before.BatchLocks)
			}
		})
	}
}

// TestMultiPutDuplicateKeysLastWins pins batch-order semantics for
// duplicate keys within one batch.
func TestMultiPutDuplicateKeysLastWins(t *testing.T) {
	for _, spec := range AllEngines() {
		st := New(Config{Shards: 4, NewEngine: spec.New})
		w := newTestWorker()
		ins, _ := st.MultiPut(w, []Pair{
			{Key: 7, Value: []byte("first")},
			{Key: 7, Value: []byte("second")},
		})
		if ins != 1 {
			t.Errorf("%s: duplicate-key batch inserted %d keys, want 1", spec.Name, ins)
		}
		v, ok := st.Get(w, 7)
		if !ok || string(v) != "second" {
			t.Errorf("%s: Get(7) = (%q, %v), want last write to win", spec.Name, v, ok)
		}
	}
}

// TestMultiGetAlignment checks result slices align with the request
// and hit every shard at most once per batch.
func TestMultiGetAlignment(t *testing.T) {
	st := New(Config{Shards: 4, NewLock: locks.FactoryMCS()})
	w := newTestWorker()
	for k := uint64(0); k < 64; k += 2 { // even keys present
		st.Put(w, k, value(k, 0))
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
	}
	before := st.AggregateStats().BatchLocks
	vals, oks := st.MultiGet(w, keys)
	if len(vals) != len(keys) || len(oks) != len(keys) {
		t.Fatalf("result length mismatch: %d vals, %d oks, %d keys", len(vals), len(oks), len(keys))
	}
	for i, k := range keys {
		wantOK := k%2 == 0
		if oks[i] != wantOK {
			t.Fatalf("key %d: ok=%v, want %v", k, oks[i], wantOK)
		}
		if wantOK && !bytes.Equal(vals[i], value(k, 0)) {
			t.Fatalf("key %d: wrong value %q", k, vals[i])
		}
	}
	batches := st.AggregateStats().BatchLocks - before
	if batches > uint64(st.NumShards()) {
		t.Fatalf("batch took %d shard-lock acquisitions, want <= %d", batches, st.NumShards())
	}
}

// TestShardOfSpreads pins the shard mapping — ShardOf(k) is
// Mix64(k) % Shards for any shard count, the placement recovery, the
// benchmark's per-shard distribution and the server's admission gate
// index all rely on — and sanity-checks its spread: sequential keys
// must not pile onto one shard.
func TestShardOfSpreads(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 17, 64} {
		st := New(Config{Shards: n})
		for k := uint64(0); k < 4096; k++ {
			k := k * 0x9e3779b97f4a7c15 // spread the probe over the key space
			if got, want := st.ShardOf(k), int(prng.Mix64(k)%uint64(n)); got != want {
				t.Fatalf("%d shards: ShardOf(%d) = %d, want Mix64(k) %% n = %d", n, k, got, want)
			}
		}
	}
	st := New(Config{Shards: 16})
	counts := make([]int, st.NumShards())
	const n = 16_000
	for k := uint64(0); k < n; k++ {
		counts[st.ShardOf(k)]++
	}
	for i, c := range counts {
		if c < n/st.NumShards()/2 || c > n/st.NumShards()*2 {
			t.Errorf("shard %d holds %d of %d sequential keys; mapping too skewed", i, c, n)
		}
	}
}

// TestStatsCount checks the per-shard counters add up.
func TestStatsCount(t *testing.T) {
	st := New(Config{Shards: 4})
	w := newTestWorker()
	for k := uint64(0); k < 100; k++ {
		st.Put(w, k, []byte("x"))
	}
	for k := uint64(0); k < 50; k++ {
		st.Get(w, k)
	}
	for k := uint64(0); k < 25; k++ {
		st.Delete(w, k)
	}
	agg := st.AggregateStats()
	if agg.Puts != 100 || agg.Gets != 50 || agg.Deletes != 25 {
		t.Fatalf("aggregate = %+v, want 100 puts / 50 gets / 25 deletes", agg)
	}
	if agg.Ops() != 175 {
		t.Fatalf("Ops() = %d, want 175", agg.Ops())
	}
	if got := st.Len(w); got != 75 {
		t.Fatalf("Len = %d, want 75", got)
	}
}
