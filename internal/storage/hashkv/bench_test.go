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
// and 1<<14 keys of 4 KiB (batch-large). Each key is one heap object,
// its value, as the store retains it: each value a fresh allocation,
// referenced from the table's one dense value array.
func BenchmarkTableGC(b *testing.B) {
	for _, shape := range []struct{ keys, size int }{
		{1 << 18, 64},
		{1 << 14, 4 << 10},
	} {
		b.Run(fmt.Sprintf("keys=%d/value=%d", shape.keys, shape.size), func(b *testing.B) {
			sink = New(256)
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

// loadKeys is the key count of the wire-point and durable-write stores,
// whose values are 64 B.
const loadKeys = 1 << 18

// loadValues allocates the values once, outside the timed loop, so the
// load and overwrite rows count only the table's own allocations.
func loadValues() [][]byte {
	vals := make([][]byte, loadKeys)
	for i := range vals {
		vals[i] = make([]byte, 64)
	}
	return vals
}

// BenchmarkTableLoad inserts 1<<18 keys of 64 B into an empty table
// per op: the chain building and growth steps a store preload pays.
func BenchmarkTableLoad(b *testing.B) {
	vals := loadValues()
	b.ReportAllocs()
	for b.Loop() {
		sink = New(256)
		for k, v := range vals {
			sink.Put(uint64(k), v)
		}
	}
	sink = nil
}

// BenchmarkTableOverwrite replaces the value of one key of a loaded
// 1<<18-key table per op, keys visited in a scattered order.
func BenchmarkTableOverwrite(b *testing.B) {
	vals := loadValues()
	sink = New(256)
	for k, v := range vals {
		sink.Put(uint64(k), v)
	}
	b.ReportAllocs()
	k := uint64(0)
	for b.Loop() {
		k = (k + 0x9e3779b9) & (loadKeys - 1)
		sink.Put(k, vals[k])
	}
	sink = nil
}
