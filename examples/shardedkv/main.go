// ShardedKV walkthrough: the same sharded KV service run three ways —
// with plain sync.Mutex shard locks, with ASL shard locks, and with the
// flat-combining pipeline (AsyncStore) over ASL locks — under an
// asymmetric big/little worker pool on a zipfian-skewed YCSB-A mix,
// then served over TCP (kvserver/kvclient) with per-request SLO
// classes standing in for the per-goroutine classing.
//
// The comparison shows the paper's trade on a service-shaped system:
// the class-oblivious mutex serves everyone alike and lets slow
// little-core holders inflate the big-core tail, while the ASL shard
// locks route big-core competitors onto the FIFO fast path and keep
// little-core competitors standing by within their epoch's reorder
// window, so big-core P99 collapses and little-core P99 tracks the
// SLO instead of the queue depth.
//
//	go run ./examples/shardedkv
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/prng"
	"repro/internal/shardedkv"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	numShards = 8
	keyspace  = 1 << 14
	slo       = int64(500 * time.Microsecond)
	duration  = 2 * time.Second
	epochID   = 1
)

// runService serves the mix for the configured duration over a fresh
// store built with the given shard-lock factory. With pipeline set,
// operations run through the flat-combining AsyncStore front end:
// callers enqueue onto per-shard rings and whoever wins the shard
// lock's try — big cores preferentially — executes the whole queue
// under one lock take.
func runService(name string, factory locks.Factory, useSLO, pipeline bool, threads, bigsN int, cal workload.Calibration) stats.Summary {
	shim := workload.DefaultShim()
	csUnits := cal.Units(2 * time.Microsecond)
	cfg := shardedkv.Config{
		Shards:  numShards,
		NewLock: factory,
		// Emulate the AMP: little-class holders keep the shard lock
		// CSFactor (3.75x) longer, as on the paper's M1 testbed.
		CSPad: func(w *core.Worker) { workload.Spin(shim.CSUnits(csUnits, w.Class())) },
	}
	st := shardedkv.New(cfg)
	// Both front ends satisfy the one shardedkv.KV surface; the service
	// loop never needs to know which one it is driving.
	var api shardedkv.KV = st
	var async *shardedkv.AsyncStore
	if pipeline {
		async = shardedkv.NewAsync(st, shardedkv.AsyncConfig{MaxBatch: 16})
		api = async
	}
	loader := core.NewWorker(core.WorkerConfig{Class: core.Big})
	for k := uint64(0); k < keyspace; k += 2 {
		st.Put(loader, k, []byte("seed"))
	}

	mix := workload.YCSBA()
	keygen := workload.NewZipf(keyspace, 0.99)
	var stop atomic.Bool
	recs := make([]*stats.ClassedRecorder, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		class := core.Big
		if i >= bigsN {
			class = core.Little
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		wg.Add(1)
		go func(id int, class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			rng := prng.NewXoshiro256(uint64(id)*977 + 3)
			val := []byte("value-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
			for !stop.Load() {
				k := keygen.Draw(rng)
				var lat int64
				if useSLO {
					w.EpochStart(epochID)
					if mix.Draw(rng.Uint64()) == workload.OpGet {
						api.Get(w, k)
					} else {
						api.Put(w, k, val)
					}
					lat = w.EpochEnd(epochID, slo)
				} else {
					s := w.Now()
					if mix.Draw(rng.Uint64()) == workload.OpGet {
						api.Get(w, k)
					} else {
						api.Put(w, k, val)
					}
					lat = w.Now() - s
				}
				rec.Record(class, lat)
			}
		}(i, class)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	// Batched epilogue: one MultiGet over 64 zipfian keys takes each
	// touched shard's lock once — at most numShards acquisitions for
	// 64 point-reads.
	bw := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if async != nil {
		// Drain and retire the pipeline: Flush completes everything
		// enqueued so far, Close seals the front end. The wrapped
		// Store keeps serving the epilogues below.
		async.Flush(bw)
		async.Close(bw)
		c := async.AggregateCombineStats()
		fmt.Printf("  %-12s combining: %d ops over %d lock takes = %.2f ops/take; %d handoffs, queue highwater %d, big/little takes %d/%d\n",
			name+":", c.Combined, c.LockTakes, c.OpsPerLockTake(),
			c.Handoffs, c.DepthHW, c.BigTakes, c.LittleTakes)
	}
	rng := prng.NewXoshiro256(12345)
	batchKeys := make([]uint64, 64)
	for i := range batchKeys {
		batchKeys[i] = keygen.Draw(rng)
	}
	before := st.AggregateStats().BatchLocks
	_, oks := st.MultiGet(bw, batchKeys)
	hits := 0
	for _, ok := range oks {
		if ok {
			hits++
		}
	}
	takes := st.AggregateStats().BatchLocks - before

	// Ordered-scan epilogue: one Range over a 4k-key window locks each
	// shard once, then merges the per-shard slices into ascending key
	// order — the data-dependent long critical section the reorder
	// window exists to absorb. MultiRange pushes two ranges through a
	// single pass over the shards.
	scanLo, scanHi := uint64(keyspace/4), uint64(keyspace/4+4095)
	scanned, ordered := 0, true
	var last uint64
	st.Range(bw, scanLo, scanHi, func(k uint64, _ []byte) bool {
		if scanned > 0 && k <= last {
			ordered = false
		}
		last = k
		scanned++
		return true
	})
	pair := st.MultiRange(bw, []shardedkv.RangeReq{
		{Lo: 0, Hi: 1023},
		{Lo: keyspace - 1024, Hi: keyspace - 1},
	})
	agg := st.AggregateStats()
	fmt.Printf("  %-12s %d shards served %d ops; MultiGet(64 keys) hit %d keys with %d lock takes\n",
		name+":", st.NumShards(), agg.Ops(), hits, takes)
	fmt.Printf("  %-12s Range[%d,%d] yielded %d keys (ordered=%v); MultiRange batch found %d+%d keys; %d per-shard scans\n",
		"", scanLo, scanHi, scanned, ordered, len(pair[0]), len(pair[1]), agg.Scans)
	return merged.Summarize(name, duration)
}

func main() {
	threads := 4
	bigsN := 2
	cal := workload.Calibrate()
	fmt.Printf("shardedkv walkthrough: %d shards, %d workers (%d big / %d little), GOMAXPROCS=%d\n",
		numShards, threads, bigsN, threads-bigsN, runtime.GOMAXPROCS(0))
	fmt.Printf("zipfian YCSB-A over %d keys, little SLO %v\n\n", keyspace, time.Duration(slo))

	// The blocking ASL flavour suits hosts where workers outnumber
	// cores (the common service deployment); on a big-iron host with
	// spare cores, swap in locks.FactoryASL() for the spinning stack.
	aslFactory := locks.FactoryASLBlocking()
	if runtime.GOMAXPROCS(0) >= 2*threads {
		aslFactory = locks.FactoryASL()
	}

	rows := []stats.Summary{
		runService("sync-mutex", locks.FactorySyncMutex(), false, false, threads, bigsN, cal),
		runService("libasl", aslFactory, true, false, threads, bigsN, cal),
		runService("pipe-asl", aslFactory, true, true, threads, bigsN, cal),
	}
	fmt.Println()
	fmt.Print(stats.FormatSummaries(rows))

	// Network epilogue: the same store served over TCP. Every request
	// carries an SLO class byte, so one connection mixes interactive
	// (big-class at the shard lock, admission bypass) and bulk
	// (little-class, bounded per-shard in-flight) operations — the
	// per-goroutine classing above becomes per-request classing here.
	fmt.Println("\nnetwork front end (kvserver + kvclient):")
	netStore := shardedkv.New(shardedkv.Config{Shards: numShards, NewLock: aslFactory})
	srv, err := kvserver.New(kvserver.Config{
		Store:          netStore,
		SLOInteractive: 100 * time.Microsecond,
		SLOBulk:        2 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	if err = srv.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	cl, err := kvclient.Dial(srv.Addr().String())
	if err != nil {
		panic(err)
	}
	cl.Put(kvserver.ClassInteractive, 1, []byte("interactive write"))
	cl.Put(kvserver.ClassBulk, 2, []byte("bulk write"))
	if v, ok, _ := cl.Get(kvserver.ClassInteractive, 2); ok {
		fmt.Printf("  interactive read of a bulk write over TCP: %q\n", v)
	}
	if sst, err := cl.Stats(); err == nil {
		fmt.Printf("  server saw %d interactive / %d bulk ops across %d shards\n",
			sst.Interactive.Ops, sst.Bulk.Ops, sst.Shards)
	}
	cl.Close()
	srv.Close()

	fmt.Printf("\nreading: with spare cores and emulated asymmetry, libasl holds big\n" +
		"P99 under sync-mutex's while little P99 stays bounded by the SLO —\n" +
		"the paper's Fig. 4 trade, realised per shard instead of per global\n" +
		"lock. pipe-asl pushes the same trade further: little cores enqueue\n" +
		"and big cores combine, so the hot shard serves whole queues per\n" +
		"lock take (ops/take above 1) instead of one handoff per op.\n" +
		"On a small or heavily loaded host the wall-clock numbers are noisy;\n" +
		"use cmd/kvbench -pipeline for longer, repeated sweeps.\n")
}
