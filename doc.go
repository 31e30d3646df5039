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
// the worker/core-class model — including the per-operation ClassHint
// that lets a serving boundary re-class a single operation without
// re-classing the goroutine. internal/locks holds the real lock
// algorithms (TAS/ticket/MCS/ShflLock-proportional baselines, the
// reorderable lock, ASLMutex) behind the worker-aware WLock
// interface, plus an observability wrapper: locks.ClassProbe records
// the class each acquisition was observed under. internal/sim + internal/amp + internal/simlock form
// the deterministic discrete-event AMP simulator that regenerates the
// paper's figures; the internal/figures tests state the shape each
// figure must reproduce, the internal/amp package doc what the model
// substitutes for the paper's M1.
//
// # Serving layer
//
// internal/shardedkv shards a KV store so that every shard pairs one
// WLock (ASLMutex by default) with one pluggable single-writer engine
// (internal/storage/{hashkv,btree,lsm,skiplist}). Batched ops take
// each shard lock once; ordered scans collect under the lock and
// emit after release. Placement is fixed: key k lives on shard
// Mix64(k) % Shards for the store's life, and no path holds two shard
// locks at once.
// Store.As / AsyncStore.As return the one op-level class-override
// view (shardedkv.Classed, itself a KV) — the library face of the
// ClassHint path.
//
// shardedkv.AsyncStore is the flat-combining front end: per-shard
// lock-free MPSC rings, futures with class-aware spin/park waiting,
// combiner election via TryAcquire with big-class preference, and an
// adaptive drain bound — weak cores enqueue, strong cores combine.
// PutAsync/DeleteAsync submit fire-and-forget writes; Flush is the
// write barrier.
//
// # Network front end
//
// internal/kvserver serves the store over TCP with a length-prefixed
// binary protocol (docs/protocol.md is normative; a test pins it to
// the code). Every request carries an SLO class byte the server maps
// to the lock class for exactly that operation: interactive requests
// run big-class (ASL fast path; elect/combine/spin on the pipeline),
// bulk requests run little-class (reorder standby; enqueue/park) and
// pass a bounded per-shard admission gate — concurrency restriction
// at the serving boundary, with interactive bypass. Per-class SLO
// epochs feed the ASL window controllers from per-request latencies.
// internal/kvclient is the concurrent pipelining client (one
// multiplexed connection, calls matched by request id).
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
// .github/workflows/ci.yml gates every push on `make ci`: vet, the
// repolint contract checkers, gofmt, build, tests, the race detector
// over RACE_PKGS, the -short smoke paths, the benchmark module's own
// vet/test/build, and net-smoke (a real server filled and read back
// by cmd/kvcheck and shut down by SIGTERM).
//
// internal/analysis + cmd/repolint machine-check the concurrency
// contracts the layers above rely on: ClassHint set/clear pairing,
// the no-callbacks-under-a-shard-lock rule, the lock order (shard
// locks never nest), and append-only wire enums. `make lint` runs the suite
// as a `go vet -vettool`; ARCHITECTURE.md ("Enforced invariants")
// maps each pass to its prose rule.
package repro

// Version identifies this reproduction build.
const Version = "1.0.0"
