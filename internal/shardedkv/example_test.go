package shardedkv_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shardedkv"
)

// ExampleStore shows the synchronous store: one worker, point ops,
// a batched read, and an ordered range scan.
func ExampleStore() {
	st := shardedkv.New(shardedkv.Config{Shards: 4})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	st.Put(w, 1, []byte("one"))
	st.Put(w, 2, []byte("two"))
	st.Put(w, 3, []byte("three"))
	st.Delete(w, 2)

	if v, ok := st.Get(w, 1); ok {
		fmt.Printf("get 1 = %s\n", v)
	}
	_, ok := st.MultiGet(w, []uint64{1, 2, 3})
	fmt.Printf("multiget found = %v\n", ok)

	st.Range(w, 0, 10, func(k uint64, v []byte) bool {
		fmt.Printf("range %d = %s\n", k, v)
		return true
	})
	// Output:
	// get 1 = one
	// multiget found = [true false true]
	// range 1 = one
	// range 3 = three
}

// ExampleStore_classOverride shows per-request classing: a caller that
// serves both classes keeps one worker per class, as the server does
// per connection, and issues each op on the worker of its class. The
// little-class put stands by within the reorder window at a contended
// ASL shard lock; the big-class read takes the fast path.
func ExampleStore_classOverride() {
	st := shardedkv.New(shardedkv.Config{Shards: 2})
	ws := [2]*core.Worker{
		core.Big:    core.NewWorker(core.WorkerConfig{Class: core.Big}),
		core.Little: core.NewWorker(core.WorkerConfig{Class: core.Little}),
	}

	st.Put(ws[core.Little], 7, []byte("bulk write"))
	v, _ := st.Get(ws[core.Big], 7)
	fmt.Printf("interactive read = %s\n", v)
	fmt.Printf("classes = %v, %v\n", ws[core.Big].Class(), ws[core.Little].Class())
	// Output:
	// interactive read = bulk write
	// classes = big, little
}

// ExampleAsyncStore shows the combining pipeline: point ops run
// through the combiner, a batch takes the Store's own path, and the
// combining stats count the point ops.
func ExampleAsyncStore() {
	st := shardedkv.New(shardedkv.Config{Shards: 2})
	async := shardedkv.NewAsync(st, shardedkv.AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})

	async.Put(w, 1, []byte("point"))
	async.MultiPut(w, []shardedkv.Pair{{Key: 2, Value: []byte("batched")}, {Key: 3, Value: []byte("batched")}})

	if v, ok := async.Get(w, 2); ok {
		fmt.Printf("get 2 = %s\n", v)
	}
	total := uint64(0)
	for _, c := range async.CombineStats() {
		total += c.Combined
	}
	fmt.Printf("ops through the combiner = %d\n", total)
	async.Close(w)
	// Output:
	// get 2 = batched
	// ops through the combiner = 2
}
