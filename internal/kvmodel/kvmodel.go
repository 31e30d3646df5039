// Package kvmodel is the shared model-equivalence harness for every
// shardedkv.KV front end: the plain Store, the combining AsyncStore, a
// durable store mid-checkpoint — and, through the
// kvsoak chaos driver, a whole server across kill -9 restarts. Each
// harness worker owns a private key stripe (key = (i%128)*workers+wi)
// and mirrors every operation on a private map; with no cross-worker
// key sharing, every return value is exactly predictable no matter
// what combiners, checkpoints, or crashes happen underneath.
//
// The package lives outside shardedkv's test files so that external
// consumers (package shardedkv_test, the soak binary's future unit
// tests) can drive the same workload; it deliberately depends only on
// the public KV surface.
package kvmodel

import (
	"bytes"
	"encoding/binary"
	"sync"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/shardedkv"
)

// TB is the checking hook — *testing.T satisfies it, and a non-test
// harness can adapt its own failure sink.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// VerValue encodes (key, version) so a read can be matched to the
// exact write that produced it.
func VerValue(k, ver uint64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], k)
	binary.LittleEndian.PutUint64(b[8:], ver)
	return b[:]
}

// DecodeVerValue is VerValue's inverse; ok is false when v was not
// produced by VerValue for key k.
func DecodeVerValue(k uint64, v []byte) (ver uint64, ok bool) {
	if len(v) != 16 || binary.LittleEndian.Uint64(v[:8]) != k {
		return 0, false
	}
	return binary.LittleEndian.Uint64(v[8:]), true
}

// Drive stresses kv with `workers` concurrent goroutines (alternating
// big/little class) for opsPer ops each, checking every return value
// against the per-worker model as it goes, and scanning every worker's
// stripe in key order. Returns the union of the workers' final models —
// the store's expected live contents over [0, 128*workers).
func Drive(t TB, kv shardedkv.KV, workers, opsPer int) map[uint64][]byte {
	t.Helper()
	final := make(map[uint64][]byte)
	var finalMu sync.Mutex
	var work sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		work.Add(1)
		go func(wi int) {
			defer work.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*0x9e3779b9 + 41)
			model := make(map[uint64][]byte)
			ver := uint64(0)
			own := func(i uint64) uint64 { return (i%128)*uint64(workers) + uint64(wi) }
			for op := 0; op < opsPer; op++ {
				k := own(rng.Uint64())
				switch rng.Uint64() % 8 {
				case 0, 1, 2:
					ver++
					v := VerValue(k, ver)
					ins, _ := kv.Put(w, k, v)
					if had := model[k] != nil; ins == had {
						t.Errorf("worker %d: Put(%d) inserted=%v, model had=%v", wi, k, ins, had)
					}
					model[k] = v
				case 3:
					v, ok := kv.Get(w, k)
					mv := model[k]
					if ok != (mv != nil) || !bytes.Equal(v, mv) {
						t.Errorf("worker %d: Get(%d) = %x,%v; model %x", wi, k, v, ok, mv)
					}
				case 4:
					present, _ := kv.Delete(w, k)
					if had := model[k] != nil; present != had {
						t.Errorf("worker %d: Delete(%d) present=%v, model had=%v", wi, k, present, had)
					}
					delete(model, k)
				case 5:
					// Batched puts over distinct owned keys.
					n := int(rng.Uint64()%5) + 2
					base := rng.Uint64()
					kvs := make([]shardedkv.Pair, n)
					wantIns := 0
					seen := map[uint64]bool{}
					for j := range kvs {
						bk := own(base + uint64(j))
						ver++
						kvs[j] = shardedkv.Pair{Key: bk, Value: VerValue(bk, ver)}
						if model[bk] == nil && !seen[bk] {
							wantIns++
						}
						seen[bk] = true
						model[bk] = kvs[j].Value
					}
					if got, _ := kv.MultiPut(w, kvs); got != wantIns {
						t.Errorf("worker %d: MultiPut inserted %d, model wants %d", wi, got, wantIns)
					}
				case 6:
					n := int(rng.Uint64()%5) + 2
					base := rng.Uint64()
					keys := make([]uint64, n)
					for j := range keys {
						keys[j] = own(base + uint64(j))
					}
					vals, oks := kv.MultiGet(w, keys)
					for j, bk := range keys {
						mv := model[bk]
						if oks[j] != (mv != nil) || !bytes.Equal(vals[j], mv) {
							t.Errorf("worker %d: MultiGet(%d) = %x,%v; model %x", wi, bk, vals[j], oks[j], mv)
						}
					}
				default:
					// Ordered scan across every worker's stripe (all
					// owned keys are < 128*workers): the merge across
					// shards must emit in key order.
					prev, first := uint64(0), true
					kv.Range(w, 0, 128*uint64(workers), func(sk uint64, sv []byte) bool {
						if !first && sk <= prev {
							t.Errorf("Range emitted %d after %d", sk, prev)
						}
						prev, first = sk, false
						return true
					})
				}
			}
			for i := uint64(0); i < 128; i++ {
				k := own(i)
				v, ok := kv.Get(w, k)
				mv := model[k]
				if ok != (mv != nil) || !bytes.Equal(v, mv) {
					t.Errorf("worker %d: final Get(%d) = %x,%v; model %x", wi, k, v, ok, mv)
				}
			}
			finalMu.Lock()
			for k, v := range model {
				final[k] = v
			}
			finalMu.Unlock()
		}(wi)
	}
	work.Wait()
	return final
}

// Verify sweeps the harness's whole key range on kv and demands it
// matches the merged model exactly — present keys with the right
// value, deleted/never-written keys absent. This is the recovery
// check: a replayed store must answer exactly as the store that took
// the workload did.
func Verify(t TB, kv shardedkv.KV, workers int, final map[uint64][]byte) {
	t.Helper()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 128*uint64(workers); k++ {
		v, ok := kv.Get(w, k)
		mv := final[k]
		if ok != (mv != nil) || !bytes.Equal(v, mv) {
			t.Errorf("Get(%d) = %x,%v; model %x", k, v, ok, mv)
		}
	}
}
