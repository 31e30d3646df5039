package shardedkv

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/workload"
)

// verValue encodes (key, version) so a read can be matched to the
// exact write that produced it.
func verValue(k, ver uint64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], k)
	binary.LittleEndian.PutUint64(b[8:], ver)
	return b[:]
}

// TestAsyncLinearizableVsModel checks the pipeline against a
// single-threaded model store: every worker owns a disjoint key set
// and mirrors each async op on a private map, so each op's RETURN
// value (get bytes + found, put inserted, delete present) is exactly
// predictable — any combiner bug that drops, duplicates, reorders, or
// cross-wires a queued request shows up as a mismatch. Workers share
// shards and queues, so the combining machinery itself is fully
// concurrent. Run with -race.
func TestAsyncLinearizableVsModel(t *testing.T) {
	const workers = 8
	opsPer := 4_000
	if testing.Short() {
		opsPer = 800
	}
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*0x9e3779b9 + 101)
			model := make(map[uint64][]byte)
			ver := uint64(0)
			// own maps a small index space onto this worker's keys.
			own := func(i uint64) uint64 { return (i%256)*workers + uint64(wi) }
			for op := 0; op < opsPer; op++ {
				k := own(rng.Uint64())
				switch rng.Uint64() % 8 {
				case 0, 1, 2:
					ver++
					v := verValue(k, ver)
					inserted, _ := a.Put(w, k, v)
					_, had := model[k]
					if inserted == had {
						t.Errorf("worker %d: Put(%d) inserted=%v, model had=%v", wi, k, inserted, had)
					}
					model[k] = v
				case 3, 4, 5:
					v, ok := a.Get(w, k)
					mv, mok := model[k]
					if ok != mok || !bytes.Equal(v, mv) {
						t.Errorf("worker %d: Get(%d) = %x,%v; model %x,%v", wi, k, v, ok, mv, mok)
					}
				case 6:
					present, _ := a.Delete(w, k)
					_, had := model[k]
					if present != had {
						t.Errorf("worker %d: Delete(%d) present=%v, model had=%v", wi, k, present, had)
					}
					delete(model, k)
				default:
					// Batched flavour over distinct owned keys.
					n := int(rng.Uint64()%5) + 2
					base := rng.Uint64()
					if rng.Uint64()&1 == 0 {
						kvs := make([]Pair, n)
						for j := range kvs {
							bk := own(base + uint64(j))
							ver++
							kvs[j] = Pair{Key: bk, Value: verValue(bk, ver)}
						}
						wantIns := 0
						for _, kv := range kvs {
							if _, had := model[kv.Key]; !had {
								wantIns++
							}
							model[kv.Key] = kv.Value
						}
						if got, _ := a.MultiPut(w, kvs); got != wantIns {
							t.Errorf("worker %d: MultiPut inserted %d, model wants %d", wi, got, wantIns)
						}
					} else {
						keys := make([]uint64, n)
						for j := range keys {
							keys[j] = own(base + uint64(j))
						}
						vals, oks := a.MultiGet(w, keys)
						for j, bk := range keys {
							mv, mok := model[bk]
							if oks[j] != mok || !bytes.Equal(vals[j], mv) {
								t.Errorf("worker %d: MultiGet(%d) = %x,%v; model %x,%v",
									wi, bk, vals[j], oks[j], mv, mok)
							}
						}
					}
				}
			}
			// Final state: every owned key must read back exactly as
			// the model says, through the pipeline.
			for i := uint64(0); i < 256; i++ {
				k := own(i)
				v, ok := a.Get(w, k)
				mv, mok := model[k]
				if ok != mok || !bytes.Equal(v, mv) {
					t.Errorf("worker %d: final Get(%d) = %x,%v; model %x,%v", wi, k, v, ok, mv, mok)
				}
			}
		}(wi)
	}
	wg.Wait()
}

// TestAsyncSharedStress is the shared-key counterpart: the runStress
// mix (value integrity + exact insert/delete accounting) driven
// through the pipeline on every engine, with ordered Range checks
// under churn. Run with -race.
func TestAsyncSharedStress(t *testing.T) {
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 8, NewEngine: spec.New})
			a := NewAsync(st, AsyncConfig{})
			var inserts, deletes atomic.Int64
			var wg sync.WaitGroup
			const keyspace = 512
			for wi := 0; wi < 8; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					class := core.Big
					if wi%2 == 1 {
						class = core.Little
					}
					w := core.NewWorker(core.WorkerConfig{Class: class})
					rng := prng.NewSplitMix64(uint64(wi)*0xabcdef + 3)
					for op := 0; op < opsPer; op++ {
						k := rng.Uint64() % keyspace
						switch rng.Uint64() % 6 {
						case 0, 1:
							if ins, _ := a.Put(w, k, stressValue(k)); ins {
								inserts.Add(1)
							}
						case 2:
							if v, ok := a.Get(w, k); ok {
								checkStressValue(t, k, v)
							}
						case 3:
							if del, _ := a.Delete(w, k); del {
								deletes.Add(1)
							}
						case 4:
							lo := k
							hi := lo + rng.Uint64()%64
							prev, first := uint64(0), true
							a.Range(w, lo, hi, func(sk uint64, sv []byte) bool {
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
									bk := (rng.Uint64() + uint64(j)) % keyspace
									kvs[j] = Pair{Key: bk, Value: stressValue(bk)}
								}
								n, _ := a.MultiPut(w, kvs)
								inserts.Add(int64(n))
							} else {
								for _, res := range a.MultiRange(w, []RangeReq{
									{Lo: k, Hi: k + 32},
									{Lo: k + 128, Hi: k + 160},
								}) {
									for i, kv := range res {
										if i > 0 && kv.Key <= res[i-1].Key {
											t.Errorf("MultiRange emitted %d after %d", kv.Key, res[i-1].Key)
										}
										checkStressValue(t, kv.Key, kv.Value)
									}
								}
							}
						}
					}
				}(wi)
			}
			wg.Wait()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			a.Flush(w)
			wantLen := int(inserts.Load() - deletes.Load())
			if got := st.Len(w); got != wantLen {
				t.Fatalf("final Len %d != inserts %d - deletes %d", got, inserts.Load(), deletes.Load())
			}
			agg := a.AggregateCombineStats()
			if agg.Combined == 0 || agg.LockTakes == 0 {
				t.Fatalf("no combining recorded: %+v", agg)
			}
		})
	}
}

// TestAsyncMultiPutDistinctKeysDuplicateFree re-checks the MultiPut
// insert count against duplicate-free batches (the only case whose
// count is defined under concurrent execution).
func TestAsyncMultiPutInsertCount(t *testing.T) {
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	kvs := make([]Pair, 64)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(i), Value: stressValue(uint64(i))}
	}
	if got, _ := a.MultiPut(w, kvs); got != 64 {
		t.Fatalf("first MultiPut inserted %d, want 64", got)
	}
	if got, _ := a.MultiPut(w, kvs); got != 0 {
		t.Fatalf("second MultiPut inserted %d, want 0", got)
	}
	if got := st.Len(w); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
}

// TestAsyncCloseSemantics: Close is idempotent, makes every further
// AsyncStore call panic — the batches and scans it forwards to the
// Store as well as the queued point ops — and leaves the wrapped Store
// usable.
func TestAsyncCloseSemantics(t *testing.T) {
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 128; k++ {
		a.Put(w, k, stressValue(k))
	}
	a.Close(w)
	a.Close(w) // idempotent
	for name, call := range map[string]func(){
		"Get":        func() { a.Get(w, 1) },
		"MultiGet":   func() { a.MultiGet(w, []uint64{1, 2}) },
		"MultiPut":   func() { a.MultiPut(w, []Pair{{Key: 1, Value: stressValue(1)}}) },
		"Range":      func() { a.Range(w, 0, 10, func(uint64, []byte) bool { return true }) },
		"MultiRange": func() { a.MultiRange(w, []RangeReq{{Lo: 0, Hi: 10}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close must panic", name)
				}
			}()
			call()
		}()
	}
	// The synchronous store is unaffected, and holds everything the
	// pipeline wrote.
	if got := st.Len(w); got != 128 {
		t.Fatalf("Store.Len after Close = %d, want 128", got)
	}
	if v, ok := st.Get(w, 5); !ok {
		t.Fatal("key 5 missing after Close")
	} else {
		checkStressValue(t, 5, v)
	}
}

// TestAsyncCombinerStarvationBound pins every op to ONE shard (the
// zipf-hot regime taken to its limit) and checks that a single
// little-class worker still completes a fixed op budget while six
// big-class workers hammer the same shard: the FIFO request queue bounds
// how often a queued op can be overtaken, so combining must not buy
// throughput with little-class starvation.
func TestAsyncCombinerStarvationBound(t *testing.T) {
	st := New(Config{Shards: 1})
	a := NewAsync(st, AsyncConfig{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < 6; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			rng := prng.NewSplitMix64(uint64(wi)*31 + 7)
			for !stop.Load() {
				k := rng.Uint64() % 4096
				if rng.Uint64()&1 == 0 {
					a.Put(w, k, stressValue(k))
				} else {
					a.Get(w, k)
				}
			}
		}(wi)
	}
	littleOps := 400
	if testing.Short() {
		littleOps = 100
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := core.NewWorker(core.WorkerConfig{Class: core.Little})
		for i := 0; i < littleOps; i++ {
			k := uint64(i)
			a.Put(w, k, stressValue(k))
			if v, ok := a.Get(w, k); !ok {
				t.Errorf("little worker lost its own write for key %d", k)
			} else {
				checkStressValue(t, k, v)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("little-class worker starved on the hot shard")
	}
	stop.Store(true)
	wg.Wait()
}

// TestAsyncCombiningBatches drives a single hot shard hard enough that
// combining must actually batch: every async op is accounted for
// exactly once, and under real parallelism the ops-per-lock-take ratio
// exceeds 1 (the whole point of the pipeline).
func TestAsyncCombiningBatches(t *testing.T) {
	const workers = 8
	opsPer := 2_000
	if testing.Short() {
		opsPer = 500
	}
	st := New(Config{
		Shards: 1,
		// A calibrated pad lengthens the critical section so queues
		// form, as in the kvbench AMP emulation.
		CSPad: func(w *core.Worker) { workload.Spin(2_000) },
	})
	a := NewAsync(st, AsyncConfig{})
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*13 + 5)
			for op := 0; op < opsPer; op++ {
				k := rng.Uint64() % 1024
				if rng.Uint64()&1 == 0 {
					a.Put(w, k, stressValue(k))
				} else {
					a.Get(w, k)
				}
			}
		}(wi)
	}
	wg.Wait()
	agg := a.AggregateCombineStats()
	if want := uint64(workers * opsPer); agg.Combined != want {
		t.Fatalf("Combined = %d, want exactly %d (every async op accounted once)", agg.Combined, want)
	}
	if agg.LockTakes == 0 {
		t.Fatal("no lock takes recorded")
	}
	t.Logf("combining: %d ops / %d takes = %.2f ops/take, %d handoffs, depthHW %d, big/little takes %d/%d",
		agg.Combined, agg.LockTakes, agg.OpsPerLockTake(), agg.Handoffs, agg.DepthHW,
		agg.BigTakes, agg.LittleTakes)
	if runtime.GOMAXPROCS(0) >= 4 {
		if r := agg.OpsPerLockTake(); r <= 1.1 {
			t.Errorf("ops-per-lock-take = %.2f; combining is not batching", r)
		}
		if agg.DepthHW == 0 {
			t.Error("queue depth high-water is zero under a hot shard")
		}
	}
}

// TestAsyncRangeCallbackLockFree proves the pipeline's collect-then-
// emit contract: the Range callback runs strictly after every shard
// lock is released, so it may re-enter both the pipeline and the
// store. The shard locks are not reentrant — a violation deadlocks
// rather than silently passing.
func TestAsyncRangeCallbackLockFree(t *testing.T) {
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 64; k++ {
		a.Put(w, k, stressValue(k))
	}
	visited := 0
	a.Range(w, 0, 63, func(k uint64, v []byte) bool {
		checkStressValue(t, k, v)
		// Re-enter on every shard: ShardOf hashes, so k+1..k+4 cover
		// several shards across the walk.
		a.Get(w, k+1)
		a.Put(w, 1_000+k, stressValue(1_000+k))
		st.Get(w, k)
		visited++
		return true
	})
	if visited != 64 {
		t.Fatalf("visited %d keys, want 64", visited)
	}
}

// TestDrainStopsAtBound pushes maxDrain+3 requests on one shard and
// runs one combiner election: the drain must execute exactly maxDrain of
// them under its one lock take and leave the rest queued.
func TestDrainStopsAtBound(t *testing.T) {
	st := New(Config{Shards: 1})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	q := a.pipes[0]
	reqs := make([]*request, maxDrain+3)
	for i := range reqs {
		r := a.newReq(opPut)
		r.key, r.val = uint64(i), stressValue(uint64(i))
		q.queue.push(r)
		reqs[i] = r
	}
	if !a.tryCombine(w, q) {
		t.Fatal("tryCombine drained nothing")
	}
	if c := a.AggregateCombineStats(); c.Combined != maxDrain || c.LockTakes != 1 {
		t.Fatalf("one drain: Combined %d over %d takes, want %d over 1", c.Combined, c.LockTakes, maxDrain)
	}
	if n := q.queue.Len(); n != 3 {
		t.Fatalf("queue holds %d after one drain, want 3", n)
	}
	for i, r := range reqs {
		if want := i < maxDrain; r.isDone() != want {
			t.Fatalf("request %d: done %v, want %v", i, r.isDone(), want)
		}
	}
	// Serve the rest, so every test-owned request completes.
	if !a.tryCombine(w, q) || !q.queue.Empty() || !reqs[len(reqs)-1].isDone() {
		t.Fatal("second drain left requests queued")
	}
}

// TestDryDrainAgesRecentDepth runs one request through a shard whose
// recent-depth estimate reads 8: the drain ends dry short of its bound,
// so the estimate ages by 3/4, to 6.
func TestDryDrainAgesRecentDepth(t *testing.T) {
	st := New(Config{Shards: 1})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	q := a.pipes[0]
	q.hwRecent.Store(8)
	if _, ok := a.Get(w, 1); ok {
		t.Fatal("Get on an empty store found a value")
	}
	if c := a.AggregateCombineStats(); c.Combined != 1 {
		t.Fatalf("Combined = %d, want 1", c.Combined)
	}
	if got := q.hwRecent.Load(); got != 6 {
		t.Fatalf("hwRecent = %d after a dry drain from 8, want 6", got)
	}
}
