package hashkv

import (
	"fmt"
	"runtime"
	"testing"
)

// Engine microbenchmarks for the hash table (ROADMAP 1c). Run with
// `make microbench`.

var sink *Table

// BenchmarkTableGC reports what one forced, blocking GC cycle costs (ns
// per GC) with a loaded table live, on the shapes of the hashkv
// workloads' stores: 1<<18 keys of 64 B (wire-point, durable-write)
// and 1<<14 keys of 4 KiB (batch-large). Each key is two heap objects,
// its chained entry and its value, as the store retains them: one
// growing slot, each value a fresh allocation.
func BenchmarkTableGC(b *testing.B) {
	for _, shape := range []struct{ keys, size int }{
		{1 << 18, 64},
		{1 << 14, 4 << 10},
	} {
		b.Run(fmt.Sprintf("keys=%d/value=%d", shape.keys, shape.size), func(b *testing.B) {
			sink = NewGrowing(1, 256)
			for k := range uint64(shape.keys) {
				sink.Put(k, make([]byte, shape.size))
			}
			runtime.GC()
			b.ReportAllocs()
			for b.Loop() {
				runtime.GC()
			}
			sink = nil
		})
	}
}
