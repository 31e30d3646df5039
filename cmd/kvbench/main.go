// Command kvbench drives the sharded asymmetry-aware KV service
// (internal/shardedkv) in process with the repository's workload mixes
// and reports throughput and tail latency per (engine, mix, lock)
// configuration, comparing ASL shard locks against class-oblivious
// baselines such as plain sync.Mutex. The served path (TCP, codec,
// WAL) is measured by the repository's benchmark, benchmark/; this
// grid covers what that cannot: every engine, every lock family and the
// combining pipeline side by side.
//
// Usage:
//
//	kvbench                                  # engine × mix grid, asl vs mutex
//	kvbench -engines hashkv,btree -mixes zipf -locks all
//	kvbench -threads 8 -bigs 4 -slo 200us -dur 1s
//	kvbench -pipeline -mixes zipfw           # ASL vs combining vs plain, one grid
//
// Mixes: read (95% get), write (80% put), zipf (YCSB-A 50/50 over
// zipfian keys), zipfw (write-heavy 80% put over zipfian keys — the
// hot-shard regime combining targets), batch
// (MultiGet/MultiPut, keys sorted by shard), and scan (YCSB-E 95%
// range scan / 5% put over -span-wide windows).
// Locks: asl (one stack for dedicated and over-subscribed cores),
// mutex, mcs, pthread. -pipeline adds a sibling row per lock (pipe-*)
// so handoff policy and combining answer the same contention in one
// grid run; cmd/kvbench/README.md documents
// every flag, row family and
// stderr counter line. A row is one short run on a shared host: compare
// rows of one invocation, never single rows across runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/shardedkv"
	"repro/internal/stats"
	"repro/internal/workload"
)

type benchConfig struct {
	shards   int
	threads  int
	bigs     int
	dur      time.Duration
	warmup   time.Duration
	slo      int64
	keys     uint64
	vsize    int
	batch    int
	span     uint64
	zipfS    float64
	ncsUnits int64
	csUnits  int64
}

// validate rejects flag values the grid cannot run: each would panic,
// divide by zero, print a row that measured nothing, or label a row
// with a configuration it did not run.
func validate(cfg benchConfig) error {
	switch {
	case cfg.shards < 1:
		return fmt.Errorf("-shards must be >= 1 (got %d)", cfg.shards)
	case cfg.threads < 1:
		return fmt.Errorf("-threads must be >= 1 (got %d)", cfg.threads)
	case cfg.bigs < 0 || cfg.bigs > cfg.threads:
		return fmt.Errorf("-bigs must be in [0, -threads=%d] (got %d)", cfg.threads, cfg.bigs)
	case cfg.vsize < 0:
		return fmt.Errorf("-vsize must be >= 0 (got %d)", cfg.vsize)
	case cfg.keys < 1:
		return fmt.Errorf("-keys must be >= 1 (got %d)", cfg.keys)
	case cfg.batch < 1:
		return fmt.Errorf("-batch must be >= 1 (got %d)", cfg.batch)
	case cfg.span < 1:
		return fmt.Errorf("-span must be >= 1 (got %d)", cfg.span)
	case cfg.zipfS <= 0 || cfg.zipfS >= 1:
		return fmt.Errorf("-zipf theta must be in (0, 1) (got %g)", cfg.zipfS)
	}
	return nil
}

type mixSpec struct {
	name string
	mix  *workload.Mix
	// zipf selects zipfian key popularity instead of uniform.
	zipf bool
	// batched selects MultiGet/MultiPut operation batches.
	batched bool
}

func allMixes() []mixSpec {
	return []mixSpec{
		{name: "read", mix: workload.ReadHeavy()},
		{name: "write", mix: workload.WriteHeavy()},
		{name: "zipf", mix: workload.YCSBA(), zipf: true},
		{name: "zipfw", mix: workload.WriteHeavy(), zipf: true},
		{name: "batch", mix: workload.ReadHeavy(), batched: true},
		{name: "scan", mix: workload.ScanHeavy()},
	}
}

type lockSpec struct {
	name string
	f    locks.Factory
	// slo enables epoch/SLO annotation (only meaningful for asl).
	slo bool
	// pipe sends point operations through the flat-combining
	// AsyncStore front end over the same shard locks; batches and scans
	// take the store's own path either way.
	pipe bool
}

// expandLocks grows each base lock into its comparison family: the
// plain row and, with -pipeline, a pipe-* combining sibling — so
// handoff policy and combining answer the same contention in one grid
// run.
func expandLocks(lks []lockSpec, pipeline bool) []lockSpec {
	var out []lockSpec
	for _, lk := range lks {
		out = append(out, lk)
		if pipeline {
			out = append(out, lockSpec{name: "pipe-" + lk.name, f: lk.f, slo: lk.slo, pipe: true})
		}
	}
	return out
}

func allLocks() []lockSpec {
	return []lockSpec{
		// asl is ASLMutex, for dedicated and over-subscribed cores
		// alike.
		{name: "asl", f: locks.FactoryASL(), slo: true},
		{name: "mutex", f: locks.FactorySyncMutex()},
		{name: "mcs", f: locks.FactoryMCS()},
		{name: "pthread", f: locks.FactoryPthread()},
	}
}

// spanHi returns lo+span-1 clamped to the top of the key space: a lo
// drawn near MaxUint64 must widen to the end, not wrap into an empty
// range.
func spanHi(lo, span uint64) uint64 {
	hi := lo + span - 1
	if hi < lo {
		return ^uint64(0)
	}
	return hi
}

// preload fills half the keyspace so gets have something to hit.
func preload(st *shardedkv.Store, cfg benchConfig) {
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	v := make([]byte, cfg.vsize)
	for k := uint64(0); k < cfg.keys; k += 2 {
		st.Put(w, k, v)
	}
}

// The workers drive the shardedkv.KV surface; Store (plain per-op
// locking) and AsyncStore (flat-combining pipeline) both implement
// it, so one worker loop serves both rows.

// run executes one configuration and returns its summary row and (for
// pipe rows) the aggregate combining stats.
func run(name string, eng shardedkv.EngineSpec, mix mixSpec, lk lockSpec, cfg benchConfig) (stats.Summary, *shardedkv.CombineStats) {
	// The critical-section pad emulates the paper's AMP regime on a
	// symmetric host: a little-class holder keeps the shard lock
	// CSFactor times longer, exactly the condition under which FIFO
	// queues collapse and bounded reordering pays (Fig. 1 vs Fig. 4).
	shim := workload.DefaultShim()
	scfg := shardedkv.Config{
		Shards:    cfg.shards,
		NewEngine: eng.New,
		NewLock:   lk.f,
		CSPad: func(w *core.Worker) {
			workload.Spin(shim.CSUnits(cfg.csUnits, w.Class()))
		},
	}
	st := shardedkv.New(scfg)
	preload(st, cfg)
	var api shardedkv.KV = st
	var async *shardedkv.AsyncStore
	if lk.pipe {
		async = shardedkv.NewAsync(st, shardedkv.AsyncConfig{})
		api = async
	}
	var keygen workload.KeyGen = workload.NewUniform(cfg.keys)
	if mix.zipf {
		keygen = workload.NewZipf(cfg.keys, cfg.zipfS)
	}
	useSLO := lk.slo && cfg.slo >= 0

	// Samples taken before recording turns on are discarded, as the
	// figure harness does with its Warmup window: they cover goroutine
	// spawn, cold engine structures, and the AIMD controller's
	// convergence from its initial window.
	var stop, recording atomic.Bool
	recs := make([]*stats.ClassedRecorder, cfg.threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.threads; i++ {
		class := core.Big
		if i >= cfg.bigs {
			class = core.Little
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		wg.Add(1)
		go func(i int, class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewSplitMix64(uint64(i)*0x9e3779b97f4a7c15 + 0xbeef)
			val := make([]byte, cfg.vsize)
			ncs := shim.NCSUnits(cfg.ncsUnits, class)
			kvs := make([]shardedkv.Pair, cfg.batch)
			keys := make([]uint64, cfg.batch)
			// doOp returns the number of point operations the request
			// covered — batch size for batched ops, keys visited for
			// scans — so every row reports ops/s in the same per-key
			// unit (P99 stays per request).
			doOp := func() uint64 {
				kind := mix.mix.Draw(rng.Uint64())
				if mix.batched {
					if kind == workload.OpGet {
						for j := range keys {
							keys[j] = keygen.Draw(rng)
						}
						api.MultiGet(w, keys)
					} else {
						for j := range kvs {
							kvs[j] = shardedkv.Pair{Key: keygen.Draw(rng), Value: val}
						}
						api.MultiPut(w, kvs)
					}
					return uint64(cfg.batch)
				}
				k := keygen.Draw(rng)
				switch kind {
				case workload.OpScan:
					visited := uint64(0)
					api.Range(w, k, spanHi(k, cfg.span), func(uint64, []byte) bool {
						visited++
						return true
					})
					return max(visited, 1)
				case workload.OpGet:
					api.Get(w, k)
				default:
					api.Put(w, k, val)
				}
				return 1
			}
			for !stop.Load() {
				var lat int64
				var n uint64
				if useSLO {
					w.EpochStart(0)
					n = doOp()
					lat = w.EpochEnd(0, cfg.slo)
				} else {
					s := w.Now()
					n = doOp()
					lat = w.Now() - s
				}
				if recording.Load() {
					rec.RecordBatch(class, lat, n)
				}
				workload.Spin(ncs)
			}
		}(i, class)
	}
	time.Sleep(cfg.warmup)
	recording.Store(true)
	time.Sleep(cfg.dur)
	stop.Store(true)
	wg.Wait()
	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	var comb *shardedkv.CombineStats
	if async != nil {
		c := async.AggregateCombineStats()
		comb = &c
	}
	return merged.Summarize(name, cfg.dur), comb
}

// pick filters specs by a comma-separated name list ("all" keeps all).
func pick[T any](sel string, specs []T, name func(T) string) ([]T, error) {
	if sel == "all" || sel == "" {
		return specs, nil
	}
	var out []T
	for _, want := range strings.Split(sel, ",") {
		want = strings.TrimSpace(want)
		found := false
		for _, s := range specs {
			if name(s) == want {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown name %q", want)
		}
	}
	return out, nil
}

// runGrid runs every engine × mix × lock row, printing one summary
// table per engine to out and per-row progress, with each pipe row's
// combining counters, to progress.
func runGrid(out, progress io.Writer, engs []shardedkv.EngineSpec, mxs []mixSpec, lks []lockSpec, cfg benchConfig) {
	for _, eng := range engs {
		var rows []stats.Summary
		for _, mix := range mxs {
			for _, lk := range lks {
				mixName := mix.name
				if mix.batched {
					// Make the request size visible: P99 is per
					// batch request, ops/s is per key.
					mixName = fmt.Sprintf("%s%d", mix.name, cfg.batch)
				}
				name := fmt.Sprintf("%s/%s/%s", eng.Name, mixName, lk.name)
				row, comb := run(name, eng, mix, lk, cfg)
				rows = append(rows, row)
				fmt.Fprintf(progress, "done: %s\n", name)
				if comb != nil {
					fmt.Fprintf(progress,
						"  combining: %d ops / %d takes = %.2f ops/take (handoffs %d, depthHW %d, big/little takes %d/%d)\n",
						comb.Combined, comb.LockTakes, comb.OpsPerLockTake(),
						comb.Handoffs, comb.DepthHW, comb.BigTakes, comb.LittleTakes)
				}
			}
		}
		fmt.Fprint(out, stats.FormatSummaries(rows))
	}
}

func main() {
	engines := flag.String("engines", "all", "comma list of hashkv|btree|skiplist|lsm, or all")
	mixes := flag.String("mixes", "all", "comma list of read|write|zipf|zipfw|batch|scan, or all")
	lockSel := flag.String("locks", "asl,mutex", "comma list of asl|mutex|mcs|pthread, or all")
	pipeline := flag.Bool("pipeline", false, "also run a pipe-<lock> row per lock: point ops routed through the flat-combining AsyncStore")
	shards := flag.Int("shards", 16, "shard count")
	threads := flag.Int("threads", 8, "total workers (first -bigs are big-class)")
	bigs := flag.Int("bigs", 4, "big-class workers")
	dur := flag.Duration("dur", 500*time.Millisecond, "measured duration per configuration")
	warmup := flag.Duration("warmup", 100*time.Millisecond, "unrecorded warmup before measurement")
	slo := flag.Duration("slo", 100*time.Microsecond, "epoch SLO for asl locks; negative disables epochs")
	keys := flag.Uint64("keys", 1<<16, "keyspace size")
	vsize := flag.Int("vsize", 64, "value size in bytes")
	batch := flag.Int("batch", 16, "keys per batched operation")
	span := flag.Uint64("span", 256, "key width of each range for the scan mixes")
	zipfS := flag.Float64("zipf", 0.99, "zipfian theta for the zipf mix")
	ncsGap := flag.Duration("ncs", 500*time.Nanosecond, "big-core inter-op gap (littles scaled by the shim)")
	csPad := flag.Duration("cs", 300*time.Nanosecond, "big-core critical-section pad (littles scaled by the shim); 0 disables")
	flag.Parse()

	cfg := benchConfig{
		shards:  *shards,
		threads: *threads,
		bigs:    *bigs,
		dur:     *dur,
		warmup:  *warmup,
		slo:     int64(*slo),
		keys:    *keys,
		vsize:   *vsize,
		batch:   *batch,
		span:    *span,
		zipfS:   *zipfS,
	}
	if err := validate(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		os.Exit(2)
	}
	engs, err := pick(*engines, shardedkv.AllEngines(), func(e shardedkv.EngineSpec) string { return e.Name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -engines: %v\n", err)
		os.Exit(2)
	}
	mxs, err := pick(*mixes, allMixes(), func(m mixSpec) string { return m.name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -mixes: %v\n", err)
		os.Exit(2)
	}
	lks, err := pick(*lockSel, allLocks(), func(l lockSpec) string { return l.name })
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: -locks: %v\n", err)
		os.Exit(2)
	}
	lks = expandLocks(lks, *pipeline)

	cal := workload.Calibrate()
	fmt.Fprintf(os.Stderr, "calibration: %.2f ns/spin-unit\n", cal.NsPerUnit)
	cfg.ncsUnits = cal.Units(*ncsGap)
	if *csPad > 0 {
		cfg.csUnits = cal.Units(*csPad)
	}

	runGrid(os.Stdout, os.Stderr, engs, mxs, lks, cfg)
}
