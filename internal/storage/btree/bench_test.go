package btree

import (
	"runtime"
	"testing"
)

// Engine microbenchmarks for the btree (ROADMAP 1c), on scan-mixed's
// value size. Run with `make microbench`.

var sink *Tree

// loadAscending puts n keys in ascending order, handing each Put a
// fresh 64-byte value as a store caller does.
func loadAscending(n int) *Tree {
	tr := New()
	for k := range uint64(n) {
		tr.Put(k, make([]byte, 64))
	}
	return tr
}

// BenchmarkTreeGC reports what one forced, blocking GC cycle costs (ns
// per GC) with a 1<<18-key tree of 64-byte values live: the mark work
// the tree adds to every cycle of a serving process.
func BenchmarkTreeGC(b *testing.B) {
	sink = loadAscending(1 << 18)
	runtime.GC()
	b.ReportAllocs()
	for b.Loop() {
		runtime.GC()
	}
	sink = nil
}

// BenchmarkTreeLoadAscending is the ascending preload of 1<<17 keys
// (the benchmark's setup shape): every insert lands in the rightmost
// leaf, so the leaf splits every 17 inserts.
func BenchmarkTreeLoadAscending(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sink = loadAscending(1 << 17)
	}
	sink = nil
}

// BenchmarkTreeOverwrite replaces 64-byte values of a 1<<16-key tree in
// a scattered order: the steady-state write path of a full store. Each
// Put hands over a fresh value, as a store caller does.
func BenchmarkTreeOverwrite(b *testing.B) {
	const keys = 1 << 16
	tr := loadAscending(keys)
	b.ReportAllocs()
	k := uint64(0)
	for b.Loop() {
		tr.Put(k, make([]byte, 64))
		k = (k + 40503) % keys
	}
}
