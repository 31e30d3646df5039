package shardedkv

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// These are regression tests for the collect-then-emit lock contract:
// Store.Range must hold each shard lock only while that shard's slice
// is COLLECTED and invoke the user callback strictly after release.
// The shard locks are not reentrant, so a violation self-deadlocks
// instead of silently passing: the callbacks below re-enter the store
// on every shard.

// TestStoreRangeCallbackLockFree re-enters the store from within the
// Range callback on each engine (hashkv exercises the collect-and-sort
// path, the others the ordered walks).
func TestStoreRangeCallbackLockFree(t *testing.T) {
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 4, NewEngine: spec.New})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for k := uint64(0); k < 64; k++ {
				st.Put(w, k, stressValue(k))
			}
			visited := 0
			st.Range(w, 0, 63, func(k uint64, v []byte) bool {
				checkStressValue(t, k, v)
				st.Get(w, k+1)                           // read on a neighbouring shard
				st.Put(w, 1_000+k, stressValue(1_000+k)) // write path too
				if k == 10 {
					// A nested scan from inside the callback takes
					// every shard lock again.
					st.Range(w, 20, 30, func(uint64, []byte) bool { return true })
				}
				visited++
				return true
			})
			if visited != 64 {
				t.Fatalf("visited %d keys, want 64", visited)
			}
		})
	}
}

// TestRangeEmissionUnderOverwrites pins "immutable once stored" where
// it is load-bearing: Range emits values after the last shard lock
// drops, while writers overwrite the very keys being emitted. A store
// that rewrote bytes it had handed out (an engine compacting in place)
// shows up as a value that changes under the callback, and under -race
// as a data race.
func TestRangeEmissionUnderOverwrites(t *testing.T) {
	const keys = 128
	value := func(k, version uint64) []byte {
		v := make([]byte, 16)
		binary.LittleEndian.PutUint64(v, k^0xa5a5a5a5a5a5a5a5)
		binary.LittleEndian.PutUint64(v[8:], version)
		return v
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 2, NewEngine: spec.New})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for k := uint64(0); k < keys; k++ {
				st.Put(w, k, value(k, 0))
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for wi := uint64(1); wi <= 2; wi++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ww := core.NewWorker(core.WorkerConfig{Class: core.Little})
					for version := wi; !stop.Load(); version += 2 {
						for k := uint64(0); k < keys; k++ {
							st.Put(ww, k, value(k, version))
						}
					}
				}()
			}
			for range 50 {
				st.Range(w, 0, keys-1, func(k uint64, v []byte) bool {
					want := string(v)
					if len(v) != 16 || binary.LittleEndian.Uint64(v)^0xa5a5a5a5a5a5a5a5 != k {
						t.Errorf("key %d: corrupt value %x", k, v)
					}
					runtime.Gosched() // let the writers run while v is held
					if string(v) != want {
						t.Errorf("key %d: emitted value changed from %x to %x", k, want, v)
					}
					return true
				})
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// rangers builds the two front ends of one store; the scan contract
// below holds on both.
func rangers(spec EngineSpec) map[string]KV {
	st := New(Config{Shards: 4, NewEngine: spec.New})
	ast := New(Config{Shards: 4, NewEngine: spec.New})
	return map[string]KV{"store": st, "async": NewAsync(ast, AsyncConfig{})}
}

// TestRangeReentryEarlyStopEmptySpan pins the scan scratch's contract on
// Store and AsyncStore: a callback that re-enters Range while the outer
// scan's buffer is checked out must neither see nor disturb it (a nested
// scan sharing the buffer would overwrite the pairs the outer merge has
// yet to emit), false from fn ends the emission at once and leaves the
// next scan whole, and an empty span calls fn not at all.
func TestRangeReentryEarlyStopEmptySpan(t *testing.T) {
	for _, spec := range AllEngines() {
		for name, kv := range rangers(spec) {
			t.Run(spec.Name+"/"+name, func(t *testing.T) {
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				for k := uint64(0); k < 256; k++ {
					if _, err := kv.Put(w, k, stressValue(k)); err != nil {
						t.Fatal(err)
					}
				}
				scan := func(lo, hi uint64, each func(k uint64)) (n int) {
					next := lo
					kv.Range(w, lo, hi, func(k uint64, v []byte) bool {
						if k != next {
							t.Fatalf("scan [%d,%d]: got key %d, want %d", lo, hi, k, next)
						}
						checkStressValue(t, k, v)
						next++
						n++
						if each != nil {
							each(k)
						}
						return true
					})
					return n
				}
				// Every outer pair runs a nested scan of a different,
				// larger span (and one of those nests a third).
				nested := 0
				outer := scan(0, 63, func(k uint64) {
					nested += scan(64+k, 255, func(k2 uint64) {
						if k == 7 && k2 == 100 {
							nested += scan(0, 31, nil)
						}
					})
				})
				want := 32
				for k := 0; k < 64; k++ {
					want += 256 - (64 + k)
				}
				if outer != 64 || nested != want {
					t.Fatalf("outer %d pairs (want 64), nested %d (want %d)", outer, nested, want)
				}

				seen := 0
				kv.Range(w, 0, 255, func(k uint64, v []byte) bool {
					seen++
					return seen < 5
				})
				if seen != 5 {
					t.Fatalf("fn returned false on its 5th pair and was called %d times", seen)
				}
				if n := scan(0, 255, nil); n != 256 {
					t.Fatalf("scan after an early stop saw %d pairs, want 256", n)
				}

				kv.Range(w, 1_000, 2_000, func(uint64, []byte) bool {
					t.Fatal("fn called for an empty span")
					return false
				})
				if n := scan(100, 100, nil); n != 1 {
					t.Fatalf("single-key span saw %d pairs", n)
				}
			})
		}
	}
}

// TestScanScratchReleasePinsNothing: a pooled scratch holds no value
// reference, and one grown past the retained bound is dropped.
func TestScanScratchReleasePinsNothing(t *testing.T) {
	sc := newScanScratch()
	for k := uint64(0); k < 100; k++ {
		sc.pairs = append(sc.pairs, Pair{Key: k, Value: stressValue(k)})
	}
	sc.ends = append(sc.ends, 60, 100)
	sc.runs = append(sc.runs, sc.pairs[:60], sc.pairs[60:])
	sc.release()
	if len(sc.pairs) != 0 || len(sc.ends) != 0 || len(sc.runs) != 0 {
		t.Fatalf("released scratch not reset: %d pairs, %d ends, %d runs", len(sc.pairs), len(sc.ends), len(sc.runs))
	}
	for i, p := range sc.pairs[:100] {
		if p.Value != nil {
			t.Fatalf("released scratch still references the value of pair %d", i)
		}
	}

	big := newScanScratch()
	big.pairs = make([]Pair, scanScratchMaxPairs+1)
	big.pairs[0].Value = stressValue(1)
	big.release()
	if big.pairs[0].Value == nil {
		t.Fatal("a scratch past the retained bound was reset for reuse instead of dropped")
	}
}
