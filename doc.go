// Package repro is a from-scratch Go reproduction of "Asymmetry-aware
// Scalable Locking" (LibASL, PPoPP 2022) grown into a networked,
// sharded KV service that applies the paper's idea at every layer:
// admission to a contended lock depends on who is asking — strong
// (big) entrants take the fast path, latency-tolerant (little)
// entrants stand by within an SLO-fed reorder window.
//
// The layers, bottom to top (ARCHITECTURE.md walks the same path in
// detail, with the conventions each layer relies on):
//
// # Lock reproduction
//
// internal/core holds the engine-independent LibASL logic: the AIMD
// reorder-window controller (Algorithm 2), the epoch registry, and
// the worker/core-class model — a worker's class is fixed at creation,
// so a serving boundary that handles both classes keeps one worker per
// class. internal/locks holds the real locks a shard can run behind
// the worker-aware WLock interface: ASLMutex, LibASL written once as
// the generic ASLOn and run on the wall clock, and the MCS,
// pthread-style and sync.Mutex baselines. internal/sim + internal/amp +
// internal/simlock form the deterministic discrete-event AMP simulator
// that regenerates the paper's figures, with every baseline the paper
// compares against (TAS, ticket, MCS, pthread, ShflLock-proportional);
// the internal/figures tests state the shape each figure must
// reproduce, the internal/amp package doc what the model substitutes
// for the paper's M1. cmd/ampsim regenerates each figure; cmd/sloprof
// is the §3.1 SLO profiling tool, the same sweep (figures.SLOSweep)
// that draws Fig. 8b and the variant-SLOs panels of Figs. 9/10, over
// any SLO range.
//
// # Serving layer
//
// internal/shardedkv shards a KV store so that every shard pairs one
// WLock (ASLMutex by default) with one pluggable single-writer engine
// (internal/storage/{hashkv,btree,lsm,skiplist}). Batched ops take
// each shard lock once; ordered scans collect under the lock and
// emit after release. Placement is fixed: key k lives on shard
// Mix64(k) % Shards for the store's life, and no path holds two shard
// locks at once. A library caller serving both classes does what the
// server does per connection: one worker per class, each operation on
// the worker of its class.
//
// shardedkv.AsyncStore is the flat-combining front end: per-shard
// lock-free intrusive MPSC queues, futures with class-aware spin/park waiting,
// combiner election via TryAcquire with big-class preference, and an
// adaptive drain bound — weak cores enqueue, strong cores combine.
// Every call returns once its requests have executed.
//
// # Network front end
//
// internal/kvserver serves the store over TCP with a length-prefixed
// binary protocol (docs/protocol.md is normative; a test pins it to
// the code). Every request carries an SLO class byte the server maps
// to the lock class, running the operation on the connection's worker
// of that class: interactive requests run big-class (ASL fast path;
// elect/combine/spin on the pipeline), bulk requests run little-class
// (reorder standby; enqueue/park) and pass a bounded per-shard
// admission gate — concurrency restriction
// at the serving boundary, with interactive bypass. Bulk SLO epochs
// feed the ASL window controllers from per-request latencies.
// internal/kvclient is the client (one request in flight per
// connection, concurrent calls take turns, response ids checked).
// cmd/kvserver is the standalone binary (clean SIGTERM shutdown).
//
// # Benchmarks and CI
//
// benchmark/ (a Go module of its own; contract in BENCHMARK.json, run
// with `bash benchmark/run.sh`) is the repository's benchmark: the
// served stack over loopback TCP, end-to-end metrics as medians with
// spread, output checks, per-layer attribution; `make bench-pairs` is
// the before/after procedure for a performance claim. cmd/kvbench is
// the in-process engine × mix × lock grid the benchmark cannot run
// (internal/workload mixes; cmd/kvbench/README.md has its flags).
// .github/workflows/ci.yml gates every push on `make ci`: vet, gofmt,
// build, tests, the race detector over RACE_PKGS, the -short smoke
// paths, the benchmark module's own vet/test/build, and net-smoke
// (kvserver's startup errors, then a real server filled and read back
// by cmd/kvcheck and shut down by SIGTERM).
//
// The lock contracts the layers above rely on are checked where the
// locks are taken: internal/shardedkv's shard-lock guard panics when a
// worker holding a shard lock takes another (shard locks never nest)
// or reaches an fsync-issuing log call, and a source test keeps every
// shard-lock take and every such call behind the guard. ARCHITECTURE.md
// ("Enforced invariants") says what the guard covers and what it does
// not. The wire enums' append-only rule is a test (internal/kvserver's
// TestProtocolDocMatchesCode).
package repro

// Version identifies this reproduction build.
const Version = "1.0.0"
