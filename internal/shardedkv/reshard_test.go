package shardedkv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/workload"
)

// manualReshard returns a reshard config with the detector off: splits
// fire only when the test forces them, so split points are
// deterministic. The budget keeps stress runs from fissioning into
// hundreds of micro-shards (every post-split op pays a per-shard visit
// on scans, so an unbounded budget turns the scan mix quadratic).
func manualReshard() *ReshardConfig {
	return &ReshardConfig{Manual: true, MaxShards: 48}
}

// TestForceSplitPreservesData splits shards repeatedly on every engine
// — including re-splitting children, which doubles the group
// subdirectory — and checks that no key is lost, Len reconciles,
// ordered Range still covers everything, and the map epoch advances
// once per split.
func TestForceSplitPreservesData(t *testing.T) {
	const keys = 2048
	for _, spec := range AllEngines() {
		t.Run(spec.Name, func(t *testing.T) {
			st := New(Config{Shards: 4, NewEngine: spec.New, Reshard: manualReshard()})
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for k := uint64(0); k < keys; k += 2 {
				st.Put(w, k, stressValue(k))
			}
			if got := st.NumShards(); got != 4 {
				t.Fatalf("seed NumShards = %d, want 4", got)
			}
			// Split the shard owning key 0, then the shards owning a few
			// more keys; re-splitting the same keys' homes forces
			// children (and directory doublings) deeper.
			splitKeys := []uint64{0, 0, 0, 2, 4, 8, 16}
			for i, sk := range splitKeys {
				epoch := st.MapEpoch()
				if !st.ForceSplit(w, sk) {
					t.Fatalf("ForceSplit %d (key %d) refused", i, sk)
				}
				if got := st.MapEpoch(); got != epoch+1 {
					t.Fatalf("split %d: epoch %d -> %d, want +1", i, epoch, got)
				}
			}
			rs := st.ReshardStats()
			if rs.Splits != uint64(len(splitKeys)) || rs.Events != uint64(len(splitKeys)) {
				t.Fatalf("ReshardStats = %+v, want %d splits/events", rs, len(splitKeys))
			}
			if rs.Shards != 4+len(splitKeys) {
				t.Fatalf("NumShards = %d after %d splits of 4, want %d", rs.Shards, len(splitKeys), 4+len(splitKeys))
			}
			// Every key still answers, through point reads and the scan.
			for k := uint64(0); k < keys; k++ {
				v, ok := st.Get(w, k)
				if want := k%2 == 0; ok != want {
					t.Fatalf("Get(%d) ok=%v, want %v", k, ok, want)
				} else if ok {
					checkStressValue(t, k, v)
				}
			}
			if got := st.Len(w); got != keys/2 {
				t.Fatalf("Len = %d, want %d", got, keys/2)
			}
			seen, prev, first := 0, uint64(0), true
			st.Range(w, 0, keys-1, func(k uint64, v []byte) bool {
				if !first && k <= prev {
					t.Fatalf("Range emitted %d after %d", k, prev)
				}
				prev, first = k, false
				checkStressValue(t, k, v)
				seen++
				return true
			})
			if seen != keys/2 {
				t.Fatalf("Range visited %d keys, want %d", seen, keys/2)
			}
		})
	}
}

// TestSplitRefusalAtMaxShards pins the shard budget: splits stop at
// MaxShards and report refusal.
func TestSplitRefusalAtMaxShards(t *testing.T) {
	st := New(Config{Shards: 2, Reshard: &ReshardConfig{Manual: true, MaxShards: 4}})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	st.Put(w, 1, stressValue(1))
	splits := 0
	for i := 0; i < 10; i++ {
		if st.ForceSplit(w, uint64(i)) {
			splits++
		}
	}
	if got := st.NumShards(); got > 4 {
		t.Fatalf("NumShards = %d, budget was 4", got)
	}
	if splits != 2 {
		t.Fatalf("%d splits succeeded under a 2->4 budget, want 2", splits)
	}
}

// TestSplitDepthCap pins the lineage bound: one key's home shard can
// split at most maxSplitDepth times, however large the shard budget —
// past that, the heat is too concentrated for fission to spread (and
// the subdirectory doubling would outgrow the hash bits).
func TestSplitDepthCap(t *testing.T) {
	st := New(Config{Shards: 1, Reshard: &ReshardConfig{Manual: true, MaxShards: 1 << 20}})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	st.Put(w, 42, stressValue(42))
	splits := 0
	for st.ForceSplit(w, 42) {
		splits++
		if splits > 2*maxSplitDepth {
			t.Fatal("lineage splits did not stop")
		}
	}
	if splits != maxSplitDepth {
		t.Fatalf("key 42's lineage split %d times, want %d", splits, maxSplitDepth)
	}
	if v, ok := st.Get(w, 42); !ok {
		t.Fatal("key lost across depth-capped splits")
	} else {
		checkStressValue(t, 42, v)
	}
}

// TestAggregateStatsSurviveSplits checks that a split folds the
// retired shard's counters into the aggregate instead of losing them.
func TestAggregateStatsSurviveSplits(t *testing.T) {
	st := New(Config{Shards: 2, Reshard: manualReshard()})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 300; k++ {
		st.Put(w, k, stressValue(k))
	}
	for k := uint64(0); k < 100; k++ {
		st.Get(w, k)
	}
	before := st.AggregateStats()
	if before.Puts != 300 || before.Gets != 100 {
		t.Fatalf("pre-split aggregate = %+v", before)
	}
	for _, sk := range []uint64{0, 1, 2, 3} {
		st.ForceSplit(w, sk)
	}
	after := st.AggregateStats()
	if after.Puts != 300 || after.Gets != 100 {
		t.Fatalf("post-split aggregate lost history: %+v", after)
	}
	if after.LockAttempts == 0 {
		t.Fatal("reshard-enabled store must track lock attempts")
	}
}

// TestTrackContentionStats checks the contention plumbing without a
// split: a manual-reshard store wraps its locks and populates the
// ShardStats lock counters.
func TestTrackContentionStats(t *testing.T) {
	st := New(Config{Shards: 2, Reshard: manualReshard()})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < 64; k++ {
		st.Put(w, k, stressValue(k))
	}
	agg := st.AggregateStats()
	if agg.LockAttempts < 64 {
		t.Fatalf("LockAttempts = %d, want >= 64", agg.LockAttempts)
	}
	if agg.LockContended > agg.LockAttempts {
		t.Fatalf("LockContended %d > LockAttempts %d", agg.LockContended, agg.LockAttempts)
	}
	// Without tracking, the counters stay zero.
	st2 := New(Config{Shards: 2})
	st2.Put(w, 1, stressValue(1))
	if s := st2.AggregateStats(); s.LockAttempts != 0 {
		t.Fatalf("untracked store reports %d lock attempts", s.LockAttempts)
	}
}

// TestAsyncSplitNoLostOps is the ring-migration drain check: workers
// hammer shared keys through the pipeline (including fire-and-forget
// writes) with exact insert/delete accounting while splits force rings
// to migrate; after a Flush, the store's Len must reconcile exactly and
// every combining counter must account for every op. Run with -race.
func TestAsyncSplitNoLostOps(t *testing.T) {
	const workers = 6
	opsPer := 3_000
	if testing.Short() {
		opsPer = 600
	}
	st := New(Config{Shards: 2, Reshard: manualReshard()})
	a := NewAsync(st, AsyncConfig{RingSize: 64}) // adaptive batching on
	var inserts, deletes, ffPuts atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := core.NewWorker(core.WorkerConfig{Class: core.Big})
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.ForceSplit(w, i)
			time.Sleep(250 * time.Microsecond)
		}
	}()
	const keyspace = 512
	var work sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		work.Add(1)
		go func(wi int) {
			defer work.Done()
			class := core.Big
			if wi%2 == 1 {
				class = core.Little
			}
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(wi)*77 + 13)
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
					// Fire-and-forget: insert accounting is reconciled
					// via a disjoint high-key stripe (one key per
					// worker/op pair, never deleted).
					hk := keyspace + uint64(wi)*uint64(opsPer) + uint64(op)
					a.PutAsync(w, hk, stressValue(hk))
					ffPuts.Add(1)
				default:
					lo := k
					prev, first := uint64(0), true
					a.Range(w, lo, lo+64, func(sk uint64, sv []byte) bool {
						if !first && sk <= prev {
							t.Errorf("Range emitted %d after %d", sk, prev)
						}
						prev, first = sk, false
						checkStressValue(t, sk, sv)
						return true
					})
				}
			}
		}(wi)
	}
	work.Wait()
	close(stop)
	wg.Wait()
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	a.Flush(w)
	wantLen := int(inserts.Load()-deletes.Load()) + int(ffPuts.Load())
	if got := st.Len(w); got != wantLen {
		t.Fatalf("final Len %d != inserts %d - deletes %d + ff %d",
			got, inserts.Load(), deletes.Load(), ffPuts.Load())
	}
	if st.ReshardStats().Splits == 0 {
		t.Error("no splits fired; the test lost its point")
	}
	agg := a.AggregateCombineStats()
	if agg.Combined == 0 || agg.LockTakes == 0 {
		t.Fatalf("no combining recorded: %+v", agg)
	}
}

// TestPutAsyncFireAndForget pins the fire-and-forget contract: the
// call returns without waiting, Flush is the write barrier, the ops
// are fully accounted in the combining stats, and DeleteAsync composes.
func TestPutAsyncFireAndForget(t *testing.T) {
	st := New(Config{Shards: 4})
	a := NewAsync(st, AsyncConfig{})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	const n = 512
	for k := uint64(0); k < n; k++ {
		a.PutAsync(w, k, stressValue(k))
	}
	a.Flush(w)
	if got := st.Len(w); got != n {
		t.Fatalf("Len after Flush = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := a.Get(w, k)
		if !ok {
			t.Fatalf("key %d missing after PutAsync+Flush", k)
		}
		checkStressValue(t, k, v)
	}
	for k := uint64(0); k < n; k += 2 {
		a.DeleteAsync(w, k)
	}
	a.Flush(w)
	if got := st.Len(w); got != n/2 {
		t.Fatalf("Len after DeleteAsync+Flush = %d, want %d", got, n/2)
	}
	agg := a.AggregateCombineStats()
	wantOps := uint64(n + n/2 + n) // ff puts + ff deletes + waited gets
	if agg.Combined != wantOps {
		t.Fatalf("Combined = %d, want %d (every async op accounted once)", agg.Combined, wantOps)
	}
}

// TestAdaptiveMaxBatch drives one hot shard with an adaptive pipeline
// and checks the bound machinery: the effective bound is exposed, and
// under real parallelism with deep queues it grows past the old fixed
// default on the hot shard while drains keep every op accounted.
func TestAdaptiveMaxBatch(t *testing.T) {
	const workers = 8
	opsPer := 2_000
	if testing.Short() {
		opsPer = 500
	}
	st := New(Config{
		Shards: 1,
		CSPad:  func(w *core.Worker) { workload.Spin(2_000) },
	})
	a := NewAsync(st, AsyncConfig{RingSize: 256})
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// All big: the little cap must not hide the growth.
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			rng := prng.NewSplitMix64(uint64(wi)*3 + 1)
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
		t.Fatalf("Combined = %d, want exactly %d", agg.Combined, want)
	}
	if agg.MaxBatchEff == 0 {
		t.Fatal("MaxBatchEff not exposed")
	}
	t.Logf("adaptive: %d ops / %d takes = %.2f ops/take, depthHW %d, effective bound %d",
		agg.Combined, agg.LockTakes, agg.OpsPerLockTake(), agg.DepthHW, agg.MaxBatchEff)
	// Growth needs queues deeper than the initial bound, which needs
	// real parallelism; only assert where the scheduler can provide it.
	if runtime.GOMAXPROCS(0) >= 4 && agg.DepthHW >= 2*adaptiveInitBatch {
		if agg.MaxBatchEff <= adaptiveInitBatch {
			t.Errorf("bound stayed at %d despite depthHW %d", agg.MaxBatchEff, agg.DepthHW)
		}
	}
	// A fixed-batch store must report the fixed bound.
	st2 := New(Config{Shards: 1})
	a2 := NewAsync(st2, AsyncConfig{MaxBatch: 16})
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	a2.Put(w, 1, stressValue(1))
	if eff := a2.AggregateCombineStats().MaxBatchEff; eff != 16 {
		t.Fatalf("fixed MaxBatchEff = %d, want 16", eff)
	}
}

// TestReshardDetectorSplitsHotShard runs the background detector
// against a deliberately skewed load (every op on one shard) with an
// aggressive window and checks that it splits within the deadline —
// the end-to-end smoke of the measure-then-split loop.
func TestReshardDetectorSplitsHotShard(t *testing.T) {
	st := New(Config{
		Shards: 4,
		CSPad:  func(w *core.Worker) { workload.Spin(500) },
		Reshard: &ReshardConfig{
			SkewFactor:    1.5,
			Window:        10 * time.Millisecond,
			Sustain:       2,
			MinOps:        64,
			MinContention: 0.001,
			MaxShards:     16,
		},
	})
	defer st.StopReshard()
	// One hot key pins all traffic to one shard; several workers make
	// the lock measurably contended.
	hot := uint64(7)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for !stop.Load() {
				st.Put(w, hot, stressValue(hot))
				st.Get(w, hot)
			}
		}(wi)
	}
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for st.ReshardStats().Splits == 0 {
		select {
		case <-deadline:
			stop.Store(true)
			wg.Wait()
			t.Fatalf("detector never split: %+v, agg %+v", st.ReshardStats(), st.AggregateStats())
		case <-tick.C:
		}
	}
	stop.Store(true)
	wg.Wait()
	rs := st.ReshardStats()
	if rs.Events == 0 || rs.Shards <= 4 {
		t.Fatalf("ReshardStats after detector split = %+v", rs)
	}
	// The hot key still answers.
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if v, ok := st.Get(w, hot); !ok {
		t.Fatal("hot key lost across detector split")
	} else {
		checkStressValue(t, hot, v)
	}
}
