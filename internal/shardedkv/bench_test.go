package shardedkv

import (
	"testing"

	"repro/internal/core"
)

// Layer microbenchmarks for the store's batched paths (ROADMAP 1c), on
// scan-mixed's configuration: two btree shards, 64-byte values. Run with
// `make microbench`.

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

func BenchmarkStoreMultiGet16(b *testing.B) {
	st, w := benchStore(b, 4096)
	keys := make([]uint64, 16)
	b.ReportAllocs()
	next := uint64(0)
	for b.Loop() {
		for i := range keys {
			keys[i] = next % 4096
			next += 257
		}
		vals, ok := st.MultiGet(w, keys)
		if len(vals) != 16 || !ok[15] {
			b.Fatal("MultiGet missed a preloaded key")
		}
	}
}
