package shardedkv

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
)

// stressValue encodes key ^ salt so any reader can validate that a
// value it observes belongs to the key it asked for (detects cross-key
// and cross-shard corruption).
func stressValue(k uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k^0xa5a5a5a5a5a5a5a5)
	return b[:]
}

func checkStressValue(t *testing.T, k uint64, v []byte) {
	t.Helper()
	if len(v) != 8 || binary.LittleEndian.Uint64(v)^0xa5a5a5a5a5a5a5a5 != k {
		t.Errorf("key %d: corrupt value %x", k, v)
	}
}

// runStress hammers one store with a mixed big/little worker pool and
// verifies (a) every observed value matches its key, and (b) the
// insert/delete accounting reconciles exactly with the final Len —
// shard locks serialise the engine mutations, so the booleans returned
// by Put/Delete/MultiPut are exact.
func runStress(t *testing.T, st *Store, workers, opsPer int) {
	var inserts, deletes atomic.Int64
	var wg sync.WaitGroup
	const keyspace = 512
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*0x9e3779b9 + 7)
			for op := 0; op < opsPer; op++ {
				k := rng.Uint64() % keyspace
				switch rng.Uint64() % 6 {
				case 0, 1:
					if ins, _ := st.Put(w, k, stressValue(k)); ins {
						inserts.Add(1)
					}
				case 2:
					if v, ok := st.Get(w, k); ok {
						checkStressValue(t, k, v)
					}
				case 3:
					if del, _ := st.Delete(w, k); del {
						deletes.Add(1)
					}
				case 4:
					// Range scan under churn: keys must arrive in strict
					// ascending order and every value must match its key.
					lo := k
					hi := lo + rng.Uint64()%64
					prev, first := uint64(0), true
					st.Range(w, lo, hi, func(sk uint64, sv []byte) bool {
						if sk < lo || sk > hi {
							t.Errorf("Range[%d,%d] emitted out-of-range key %d", lo, hi, sk)
						}
						if !first && sk <= prev {
							t.Errorf("Range[%d,%d] emitted %d after %d", lo, hi, sk, prev)
						}
						prev, first = sk, false
						checkStressValue(t, sk, sv)
						return true
					})
				default:
					n := int(rng.Uint64()%6) + 2
					if rng.Uint64()&1 == 0 {
						kvs := make([]Pair, n)
						for j := range kvs {
							bk := rng.Uint64() % keyspace
							kvs[j] = Pair{Key: bk, Value: stressValue(bk)}
						}
						n, _ := st.MultiPut(w, kvs)
						inserts.Add(int64(n))
					} else {
						keys := make([]uint64, n)
						for j := range keys {
							keys[j] = rng.Uint64() % keyspace
						}
						vals, oks := st.MultiGet(w, keys)
						for j := range keys {
							if oks[j] {
								checkStressValue(t, keys[j], vals[j])
							}
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	wantLen := int(inserts.Load() - deletes.Load())
	if got := st.Len(w); got != wantLen {
		t.Fatalf("final Len %d != inserts %d - deletes %d", got, inserts.Load(), deletes.Load())
	}
	live := 0
	for k := uint64(0); k < keyspace; k++ {
		if v, ok := st.Get(w, k); ok {
			checkStressValue(t, k, v)
			live++
		}
	}
	if live != wantLen {
		t.Fatalf("live scan found %d keys, accounting says %d", live, wantLen)
	}
}

// TestConcurrentStress runs the stress mix on every engine under the
// default ASL shard locks. Run with -race; that is the point.
func TestConcurrentStress(t *testing.T) {
	workers := 8
	opsPer := 4_000
	if testing.Short() {
		opsPer = 800
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 8, NewEngine: spec.New})
			runStress(t, st, workers, opsPer)
		})
	}
}

// TestConcurrentScanStress dedicates half the pool to long scans
// (Range over wide windows) while the other half churns
// point writes — the data-dependent-length critical sections the
// reorder window targets. Run with -race; every observed pair must be
// internally consistent even though the scan is only per-shard atomic.
func TestConcurrentScanStress(t *testing.T) {
	const keyspace = 2048
	opsPer := 2_000
	if testing.Short() {
		opsPer = 400
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 8, NewEngine: spec.New})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for k := uint64(0); k < keyspace; k += 2 {
				st.Put(w, k, stressValue(k))
			}
			var wg sync.WaitGroup
			for wi := 0; wi < 8; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					class := core.Big
					if wi%2 == 1 {
						class = core.Little
					}
					w := core.NewWorker(core.WorkerConfig{Class: class})
					rng := prng.NewSplitMix64(uint64(wi)*0xdeadbeef + 11)
					scanner := wi%2 == 0
					for op := 0; op < opsPer; op++ {
						k := rng.Uint64() % keyspace
						if !scanner {
							if rng.Uint64()&1 == 0 {
								st.Put(w, k, stressValue(k))
							} else {
								st.Delete(w, k)
							}
							continue
						}
						prev, first := uint64(0), true
						st.Range(w, k, k+256, func(sk uint64, sv []byte) bool {
							if !first && sk <= prev {
								t.Errorf("Range emitted %d after %d", sk, prev)
							}
							prev, first = sk, false
							checkStressValue(t, sk, sv)
							return true
						})
					}
				}(wi)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentStressAcrossLocks repeats the stress run on the
// hash engine under each lock family the benchmarks compare, so the
// layer is race-clean regardless of the injected lock.
func TestConcurrentStressAcrossLocks(t *testing.T) {
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, lf := range []struct {
		name string
		f    locks.Factory
	}{
		{"asl", locks.FactoryASL()},
		{"mcs", locks.FactoryMCS()},
		{"pthread", locks.FactoryPthread()},
		{"sync-mutex", locks.FactorySyncMutex()},
	} {
		t.Run(lf.name, func(t *testing.T) {
			st := New(Config{Shards: 8, NewLock: lf.f})
			runStress(t, st, 8, opsPer)
		})
	}
}
