// Command kvserver serves the sharded asymmetry-aware KV store over
// TCP with the binary protocol of docs/protocol.md. Every request
// carries an SLO class byte: interactive requests run big-class at the
// shard lock (ASL fast path; elect/combine/spin under -pipeline), bulk
// requests run little-class (reorder standby; enqueue/park) and pass a
// bounded per-shard admission gate — the paper's asymmetry-aware
// admission applied per request at the serving boundary.
//
// Usage:
//
//	kvserver                                   # hashkv engine, ASL shard locks, :7877
//	kvserver -addr :7900 -engine lsm -lock asl -shards 32
//	kvserver -pipeline                         # ops routed through the combining AsyncStore
//	kvserver -slo-interactive 100us -slo-bulk 2ms -bulk-inflight 4
//	kvserver -cs 1us                           # AMP critical-section emulation (benchmarks)
//	kvserver -wal /var/lib/kv/wal              # durable: replay on start, per-class group commit
//
// With -wal set, interactive requests ack only after their record's
// group commit; bulk requests ack async and are durable with a later
// batch, an OpFlush, or shutdown (see docs/protocol.md).
//
// The server shuts down cleanly on SIGINT/SIGTERM: the listener
// closes, in-flight requests finish, final stats print to stderr, and
// the process exits 0 — the contract `make net-smoke` asserts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/wal"
	"repro/internal/workload"
)

// lockFactories names the serving lock choices — the same set
// cmd/kvbench compares in process; any WLock can guard a shard.
func lockFactories() map[string]locks.Factory {
	return map[string]locks.Factory{
		"asl":          locks.FactoryASL(),
		"asl-blocking": locks.FactoryASLBlocking(),
		"mutex":        locks.FactorySyncMutex(),
		"mcs":          locks.FactoryMCS(),
		"pthread":      locks.FactoryPthread(),
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7877", "listen address")
	engine := flag.String("engine", "hashkv", "storage engine: hashkv|btree|skiplist|lsm")
	lock := flag.String("lock", "asl", "shard lock: asl|asl-blocking|mutex|mcs|pthread")
	shards := flag.Int("shards", 16, "shard count")
	pipeline := flag.Bool("pipeline", false, "route operations through the flat-combining AsyncStore")
	pipeBatch := flag.Int("pipebatch", 0, "combiner drain bound; 0 = adaptive")
	sloInteractive := flag.Duration("slo-interactive", 100*time.Microsecond, "interactive-class epoch SLO; 0 disables epochs for the class")
	sloBulk := flag.Duration("slo-bulk", 2*time.Millisecond, "bulk-class epoch SLO; 0 disables epochs for the class")
	bulkInflight := flag.Int("bulk-inflight", 0, "max in-flight bulk ops per shard (0 = default, negative disables the gate)")
	bulkWaiters := flag.Int("bulk-waiters", 0, "max waiting bulk ops per shard before rejection (0 = 4x inflight)")
	csPad := flag.Duration("cs", 0, "AMP emulation: big-core critical-section pad, littles scaled by the shim; 0 disables (production)")
	walDir := flag.String("wal", "", "write-ahead-log root directory; enables durability (recovery on start, group commit while serving)")
	walSegment := flag.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes; 0 = default")
	statsEvery := flag.Duration("stats-every", 0, "dump server stats to stderr at this interval; 0 disables")
	faults := flag.String("faults", "", "fault-injection spec, e.g. 'wal.fsync:nth=3:error' (see internal/fault.Parse); chaos harness only")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for probabilistic fault triggers")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "kvserver: -shards must be >= 1 (got %d)\n", *shards)
		os.Exit(2)
	}
	if *pipeBatch < 0 {
		fmt.Fprintf(os.Stderr, "kvserver: -pipebatch must be >= 0 (got %d; 0 = adaptive)\n", *pipeBatch)
		os.Exit(2)
	}

	var engSpec *shardedkv.EngineSpec
	for _, e := range shardedkv.AllEngines() {
		if e.Name == *engine {
			engSpec = &e
			break
		}
	}
	if engSpec == nil {
		fmt.Fprintf(os.Stderr, "kvserver: unknown -engine %q\n", *engine)
		os.Exit(2)
	}
	lf, ok := lockFactories()[*lock]
	if !ok {
		fmt.Fprintf(os.Stderr, "kvserver: unknown -lock %q\n", *lock)
		os.Exit(2)
	}

	scfg := shardedkv.Config{Shards: *shards, NewEngine: engSpec.New, NewLock: lf}
	if *csPad > 0 {
		shim := workload.DefaultShim()
		cal := workload.Calibrate()
		units := cal.Units(*csPad)
		scfg.CSPad = func(w *core.Worker) {
			workload.Spin(shim.CSUnits(units, w.Class()))
		}
	}
	var reg *fault.Registry
	if *faults != "" {
		var err error
		reg, err = fault.Parse(*faultSeed, *faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvserver: -faults: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "kvserver: fault injection armed: %s (seed %d)\n", *faults, *faultSeed)
	}
	if *walDir != "" {
		// Default policies: interactive requests ack after their group
		// commit, bulk requests ack async (durable with a later batch
		// or OpFlush). The wire class byte picks the policy end-to-end.
		scfg.Durability = &shardedkv.DurabilityConfig{
			Dir:          *walDir,
			SegmentBytes: *walSegment,
		}
		if reg != nil {
			scfg.Durability.FS = wal.FaultFS{Reg: reg}
		}
		fmt.Fprintf(os.Stderr, "kvserver: wal %s — recovering\n", *walDir)
	}
	st, err := shardedkv.Open(scfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: open store: %v\n", err)
		os.Exit(1)
	}
	var async *shardedkv.AsyncStore
	if *pipeline {
		async = shardedkv.NewAsync(st, shardedkv.AsyncConfig{MaxBatch: *pipeBatch})
	}

	srv, err := kvserver.New(kvserver.Config{
		Store:          st,
		Async:          async,
		SLOInteractive: *sloInteractive,
		SLOBulk:        *sloBulk,
		Admission: kvserver.AdmissionConfig{
			BulkPerShard: *bulkInflight,
			BulkWaiters:  *bulkWaiters,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "kvserver: serving %s/%s (%d shards, pipeline=%v) on %s\n",
		*engine, *lock, st.NumShards(), *pipeline, srv.Addr())

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				dumpStats(srv)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "kvserver: %v — shutting down\n", got)
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: close: %v\n", err)
		os.Exit(1)
	}
	w := core.NewWorker(core.WorkerConfig{Class: core.Big})
	if async != nil {
		async.Close(w)
	}
	// Store.Close syncs and closes every shard log, so async-acked bulk
	// writes are durable before the process exits.
	st.Close(w)
	if *walDir != "" {
		ws := st.WalStats()
		fmt.Fprintf(os.Stderr, "kvserver: wal %d records / %d fsyncs = %.2f ops/fsync (%d rotations, %d bytes)\n",
			ws.Appended, ws.Syncs, ws.OpsPerFsync(), ws.Rotations, ws.Bytes)
	}
	dumpStats(srv)
	fmt.Fprintln(os.Stderr, "kvserver: clean shutdown")
}

func dumpStats(srv *kvserver.Server) {
	body, err := json.Marshal(srv.Stats())
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: stats: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "kvserver: stats %s\n", body)
}
