package shardedkv_test

// The model-equivalence checks of both front ends live in the external
// test package so they can use the shared internal/kvmodel harness
// (see durable_model_test.go for the import-cycle reasoning).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kvmodel"
	"repro/internal/shardedkv"
)

// TestStoreVsModel is the model-equivalence check of the sync store:
// every worker owns a disjoint key set and mirrors each op on a
// private model, so return values are exactly predictable, while all
// workers share the shards and their locks. All four engines; run with
// -race.
func TestStoreVsModel(t *testing.T) {
	const workers = 6
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := shardedkv.New(shardedkv.Config{Shards: 4, NewEngine: spec.New})
			kvmodel.Drive(t, st, workers, opsPer)
		})
	}
}

// TestAsyncStoreVsModel runs the same model equivalence through the
// combining pipeline, its ordered Range included. Run with -race.
func TestAsyncStoreVsModel(t *testing.T) {
	const workers = 6
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := shardedkv.New(shardedkv.Config{Shards: 4, NewEngine: spec.New})
			a := shardedkv.NewAsync(st, shardedkv.AsyncConfig{})
			kvmodel.Drive(t, a, workers, opsPer)
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			if err := a.Flush(w); err != nil {
				t.Fatalf("flush: %v", err)
			}
		})
	}
}
