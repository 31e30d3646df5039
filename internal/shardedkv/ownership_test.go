package shardedkv

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
)

// frontEnds builds both front ends over a fresh store of the engine, for
// tests that must hold on each.
func frontEnds(t *testing.T, cfg Config) map[string]KV {
	t.Helper()
	return map[string]KV{
		"store": New(cfg),
		"async": NewAsync(New(cfg), AsyncConfig{}),
	}
}

// TestWritesBorrowValues: a written value is borrowed for the call. The
// caller overwrites its buffer as soon as Put or MultiPut returns — as
// the server does with its connection's frame buffer — and every engine
// on both front ends still reads the original back, through Get,
// MultiGet and Range. An engine that keeps its argument (hashkv, lsm,
// the skiplist) passes only because the front end hands it a copy.
func TestWritesBorrowValues(t *testing.T) {
	want := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, 48) }
	for _, spec := range AllEngines() {
		for name, kv := range frontEnds(t, Config{Shards: 4, NewEngine: spec.New}) {
			t.Run(spec.Name+"/"+name, func(t *testing.T) {
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				buf := make([]byte, 48)
				for k := uint64(1); k <= 8; k++ {
					copy(buf, want(k))
					if _, err := kv.Put(w, k, buf); err != nil {
						t.Fatal(err)
					}
					clear(buf)
				}
				// One backing array for the whole batch, reused at once.
				batch := make([]byte, 8*48)
				kvs := make([]Pair, 8)
				for i := range kvs {
					k := uint64(9 + i)
					copy(batch[i*48:], want(k))
					kvs[i] = Pair{Key: k, Value: batch[i*48 : (i+1)*48]}
				}
				if _, err := kv.MultiPut(w, kvs); err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					batch[i] = 0xff
				}

				keys := make([]uint64, 16)
				for i := range keys {
					keys[i] = uint64(i + 1)
					if v, ok := kv.Get(w, keys[i]); !ok || !bytes.Equal(v, want(keys[i])) {
						t.Fatalf("Get(%d) = %x, %v after the caller reused its buffer", keys[i], v, ok)
					}
				}
				vals, oks := kv.MultiGet(w, keys)
				for i, k := range keys {
					if !oks[i] || !bytes.Equal(vals[i], want(k)) {
						t.Fatalf("MultiGet key %d = %x, %v", k, vals[i], oks[i])
					}
				}
				n := 0
				kv.Range(w, 1, 16, func(k uint64, v []byte) bool {
					if !bytes.Equal(v, want(k)) {
						t.Fatalf("Range key %d = %x", k, v)
					}
					n++
					return true
				})
				if n != 16 {
					t.Fatalf("Range saw %d keys, want 16", n)
				}
			})
		}
	}
}

// mallocLock wraps a shard lock and records the most heap objects the
// process allocated during any one hold, acquire to release. ms is a
// field so that reading the counter allocates nothing itself.
type mallocLock struct {
	inner locks.WLock
	ms    runtime.MemStats
	at    uint64
	holds int
	most  uint64
}

func (l *mallocLock) mallocs() uint64 {
	runtime.ReadMemStats(&l.ms)
	return l.ms.Mallocs
}

func (l *mallocLock) Acquire(w *core.Worker) {
	l.inner.Acquire(w)
	l.at = l.mallocs()
}

func (l *mallocLock) TryAcquire(w *core.Worker) bool {
	if !l.inner.TryAcquire(w) {
		return false
	}
	l.at = l.mallocs()
	return true
}

func (l *mallocLock) Release(w *core.Worker) {
	l.holds++
	l.most = max(l.most, l.mallocs()-l.at)
	l.inner.Release(w)
}

// TestNoAllocationUnderShardLock: the value copies a hashkv store needs
// are made before the shard lock is taken, so a 4 KiB Put and a MultiPut
// of 16 allocate nothing while a shard lock is held, on either front
// end — the pipeline's combiner included. A copy made inside the engine
// would be serialised lock hold time, and shows here. Each call is
// measured a few times and the least-allocating run counts, so that a
// stray allocation elsewhere in the process cannot fail the test; a copy
// under the lock shows in every run.
func TestNoAllocationUnderShardLock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var held []*mallocLock
	cfg := Config{Shards: 4, NewLock: func() locks.WLock {
		l := &mallocLock{inner: locks.FactoryASL()()}
		held = append(held, l)
		return l
	}}
	fronts := frontEnds(t, cfg)
	val := bytes.Repeat([]byte{7}, 4096)
	kvs := make([]Pair, 16)
	for i := range kvs {
		kvs[i] = Pair{Key: uint64(100 + i), Value: val}
	}
	for _, name := range []string{"store", "async"} {
		kv := fronts[name]
		w := core.NewWorker(core.WorkerConfig{Class: core.Big})
		for _, c := range []struct {
			op   string
			call func()
		}{
			{"Put", func() { kv.Put(w, 5, val) }},
			{"MultiPut", func() { kv.MultiPut(w, kvs) }},
		} {
			c.call() // warm the pools and the table
			least := ^uint64(0)
			for range 5 {
				for _, l := range held {
					l.holds, l.most = 0, 0
				}
				c.call()
				holds, most := 0, uint64(0)
				for _, l := range held {
					holds += l.holds
					most = max(most, l.most)
				}
				if holds == 0 {
					t.Fatalf("%s %s took no shard lock", name, c.op)
				}
				least = min(least, most)
			}
			if least != 0 {
				t.Errorf("%s %s of 4 KiB values: %d heap objects allocated under one shard lock, want 0", name, c.op, least)
			}
		}
	}
}
