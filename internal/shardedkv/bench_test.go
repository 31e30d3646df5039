package shardedkv

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// Layer microbenchmarks for the store's batched paths (ROADMAP 1c). The
// Range row runs on scan-mixed's configuration (two btree shards, 64-byte
// values), the batch rows per caller class on batch-large's (hashkv, 16
// shards, 4 KiB values, 16 384 keys). Run with `make microbench`.

func benchStore(b *testing.B, keys uint64) (*Store, *core.Worker) {
	st := New(Config{Shards: 2, NewEngine: func(int) Engine { return NewBTreeEngine() }})
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	val := make([]byte, 64)
	for k := uint64(0); k < keys; k++ {
		if _, err := st.Put(w, k, val); err != nil {
			b.Fatal(err)
		}
	}
	return st, w
}

func BenchmarkStoreRange513(b *testing.B) {
	st, w := benchStore(b, 4096)
	b.ReportAllocs()
	lo, pairs := uint64(0), 0
	for b.Loop() {
		st.Range(w, lo, lo+512, func(uint64, []byte) bool {
			pairs++
			return true
		})
		lo = (lo + 97) % (4096 - 513)
	}
	if pairs != 513*b.N {
		b.Fatalf("%d scans emitted %d pairs", b.N, pairs)
	}
}

// benchBatchStore builds batch-large's served store: 16 hashkv shards,
// every key preloaded with a 4 KiB value.
func benchBatchStore(b *testing.B) *Store {
	const keys = 1 << 14
	st := New(Config{Shards: 16})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	kvs := make([]Pair, 256)
	for k := uint64(0); k < keys; k += uint64(len(kvs)) {
		for i := range kvs {
			kvs[i] = Pair{Key: k + uint64(i), Value: make([]byte, 4096)}
		}
		if _, err := st.MultiPut(w, kvs); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// batchLoop is one closed-loop caller of 16-key batches; put selects
// MultiPut (replacing preloaded keys with a shared value) over MultiGet.
func batchLoop(b *testing.B, st *Store, class core.Class, put bool, n int, seed uint64) {
	w := core.NewWorker(core.WorkerConfig{Class: class})
	keys := make([]uint64, 16)
	kvs := make([]Pair, 16)
	val := make([]byte, 4096)
	next := seed
	for ; n > 0; n-- {
		for i := range keys {
			keys[i] = next % (1 << 14)
			kvs[i] = Pair{Key: keys[i], Value: val}
			next += 257
		}
		if put {
			if ins, err := st.MultiPut(w, kvs); ins != 0 || err != nil {
				b.Errorf("MultiPut over preloaded keys = %d, %v", ins, err)
				return
			}
		} else if vals, ok := st.MultiGet(w, keys); !ok[15] || len(vals[0]) != 4096 {
			b.Error("MultiGet missed a preloaded key")
			return
		}
	}
}

var classRows = []struct {
	name  string
	class core.Class
}{{"big", core.Big}, {"little", core.Little}}

// batchRows runs batchLoop for one caller of each class, then for one
// big and one little caller side by side, as batch-large's two
// connections are: there ns/op is per call of either.
func batchRows(b *testing.B, put bool) {
	for _, row := range classRows {
		b.Run(row.name, func(b *testing.B) {
			st := benchBatchStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			batchLoop(b, st, row.class, put, b.N, 0)
		})
	}
	b.Run("big+little", func(b *testing.B) {
		st := benchBatchStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for i, row := range classRows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batchLoop(b, st, row.class, put, (b.N+i)/2, uint64(i)*8191)
			}()
		}
		wg.Wait()
	})
}

func BenchmarkStoreMultiGet16(b *testing.B) { batchRows(b, false) }

func BenchmarkStoreMultiPut16(b *testing.B) { batchRows(b, true) }

// BenchmarkQueuePushPop is one producer's push plus the combiner's pop,
// uncontended. With one request queued, pop hands it out only after
// linking the stub behind it, so each pair also pays the stub's
// re-link.
func BenchmarkQueuePushPop(b *testing.B) {
	var q reqQueue
	q.init()
	r := new(request)
	b.ReportAllocs()
	for b.Loop() {
		q.push(r)
		if q.pop() != r {
			b.Fatal("queue lost a request")
		}
	}
}

// BenchmarkFutureParkComplete is one timed park of an owner and the
// completer's wake of it: the goroutine handoff a parked waiter costs.
func BenchmarkFutureParkComplete(b *testing.B) {
	r := &request{wake: make(chan struct{}, 1)}
	parked := make(chan struct{})
	go func() {
		for range parked {
			for r.state.Load() != futParked {
				runtime.Gosched()
			}
			r.complete()
		}
	}()
	b.ReportAllocs()
	for b.Loop() {
		r.state.Store(futPending)
		parked <- struct{}{}
		if !r.parkWait(time.Second) {
			b.Fatal("park timed out")
		}
	}
	close(parked)
}
