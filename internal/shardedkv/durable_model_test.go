package shardedkv_test

// The crash-vs-model headliners live in the external test package:
// they drive the store purely through its public KV surface via the
// shared internal/kvmodel harness (which imports shardedkv, so the
// internal test package cannot use it without an import cycle).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kvmodel"
	"repro/internal/shardedkv"
)

// modelDurCfg builds a store config over dir with every write
// sync-waited, so the model is exact after a crash with no Flush:
// each op was durable before it returned.
func modelDurCfg(dir string, eng func(int) shardedkv.Engine) shardedkv.Config {
	return shardedkv.Config{
		Shards:    4,
		NewEngine: eng,
		Durability: &shardedkv.DurabilityConfig{
			Dir:         dir,
			Interactive: shardedkv.SyncWait,
			Bulk:        shardedkv.SyncWait,
		},
	}
}

// TestDurableRecoveryVsModel is the headline crash check on all four
// engines: the shared KV-model harness hammers a durable store, then
// the store either closes cleanly or is killed; the reopened store must
// match the merged model key for key. Run with -race.
func TestDurableRecoveryVsModel(t *testing.T) {
	const workers = 4
	opsPer := 1_500
	if testing.Short() {
		opsPer = 300
	}
	for _, spec := range shardedkv.AllEngines() {
		for _, kill := range []string{"close", "crash"} {
			t.Run(spec.Name+"/"+kill, func(t *testing.T) {
				dir := t.TempDir()
				st := shardedkv.New(modelDurCfg(dir, spec.New))
				final := kvmodel.Drive(t, st, workers, opsPer)
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				if kill == "close" {
					st.Close(w)
				} else {
					// Every op sync-waited, so nothing in the model is
					// allowed to be lost to the kill.
					st.CrashDrop()
				}
				st2 := shardedkv.New(modelDurCfg(dir, spec.New))
				kvmodel.Verify(t, st2, workers, final)
				st2.Close(w)
			})
		}
	}
}

// TestDurableAsyncPipelineRecovery runs the same model equivalence
// through the combining AsyncStore, then kills the store after a Flush
// (the durability barrier, which group-commits every log) and verifies
// the replayed store against the model. This is the pipeline's
// batch-append-one-fsync path under crash. Run with -race.
func TestDurableAsyncPipelineRecovery(t *testing.T) {
	const workers = 4
	opsPer := 1_000
	if testing.Short() {
		opsPer = 250
	}
	for _, spec := range shardedkv.AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := modelDurCfg(dir, spec.New)
			// Default class policies: bulk writes ack async and rely on
			// the final Flush for durability — the crash must not lose
			// them once Flush returned.
			cfg.Durability.Interactive = shardedkv.SyncDefault
			cfg.Durability.Bulk = shardedkv.SyncDefault
			st := shardedkv.New(cfg)
			a := shardedkv.NewAsync(st, shardedkv.AsyncConfig{RingSize: 32})
			final := kvmodel.Drive(t, a, workers, opsPer)
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			if err := a.Flush(w); err != nil {
				t.Fatalf("flush: %v", err)
			}
			ws := st.WalStats()
			if ws.Appended == 0 || ws.Syncs == 0 {
				t.Fatalf("pipeline ran without logging: %+v", ws)
			}
			t.Logf("wal: %d records / %d fsyncs = %.2f ops/fsync",
				ws.Appended, ws.Syncs, ws.OpsPerFsync())
			st.CrashDrop()
			st2 := shardedkv.New(modelDurCfg(dir, spec.New))
			kvmodel.Verify(t, st2, workers, final)
			st2.Close(w)
		})
	}
}
