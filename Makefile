# Development targets. `make check` is the tier-1 gate; `make race`
# runs the race detector over every concurrency-bearing package; and
# `make ci` is the exact entrypoint .github/workflows/ci.yml calls.

GO ?= go
GOFMT ?= gofmt

# Every package whose tests exercise goroutines or whose code runs
# under shared locks: the root benchmarks, the lock algorithms and
# their core feedback state, the sharded KV layer (including the
# flat-combining pipeline), the storage engines the shard locks guard,
# the workload/stats/harness/db plumbing the benches drive, and the
# discrete-event kernel (goroutine-backed simulated threads) with the
# AMP cost model that runs on it.
RACE_PKGS = . \
	./internal/core \
	./internal/locks \
	./internal/shardedkv \
	./internal/wal \
	./internal/fault \
	./internal/kvserver \
	./internal/kvclient \
	./internal/storage/... \
	./internal/workload \
	./internal/stats \
	./internal/harness \
	./internal/dbs \
	./internal/dbbench \
	./internal/simlock \
	./internal/sim \
	./internal/amp

# The repo's own multichecker (see internal/analysis): custom vet
# passes that machine-check the concurrency contracts documented in
# ARCHITECTURE.md ("Enforced invariants"). Built once into bin/ as a
# real file target, so every vet invocation in a run — and repeated
# local runs — reuse one binary (Go's build cache makes the rebuild a
# no-op when nothing changed).
REPOLINT = bin/repolint

.PHONY: check build vet lint lint-test fmt-check sh-check test short race ci bench bench-json bench-check bench-pairs microbench net-smoke wal-smoke soak FORCE

check: vet lint lint-test fmt-check sh-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

$(REPOLINT): FORCE
	$(GO) build -o $@ ./cmd/repolint

FORCE:

lint: $(REPOLINT)
	$(GO) vet -vettool=$(REPOLINT) ./...

# lint-test runs the analyzer suite's own tests: the CFG builder and
# dataflow-solver unit tests plus every pass's analysistest fixtures
# (including the multi-package fact-exchange ones).
lint-test:
	$(GO) test ./internal/analysis/...

fmt-check:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# sh-check parses every script under scripts/ without running it.
sh-check:
	@for f in scripts/*.sh; do bash -n "$$f" || exit 1; done

test:
	$(GO) test ./...

# Reduced smoke paths (figures run scaled-down reproductions; the
# shardedkv reshard tests force splits mid-stress even under -short,
# so every ci run exercises the shard-map swap path).
short:
	$(GO) test -short ./...

race:
	$(GO) test -race $(RACE_PKGS)

# net-smoke proves the network front end end to end with the REAL
# binaries: build cmd/kvserver, serve, drive a short mixed-class
# client mix through kvbench -net -netaddr (big workers interactive,
# little workers bulk), then SIGTERM the server and assert it exits
# cleanly (the graceful-shutdown contract).
# The server binds port 0 and reports the kernel-chosen address on
# stderr, so concurrent jobs on a shared runner can never collide on
# (or accidentally smoke-test) each other's listener.
net-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/kvserver ./cmd/kvserver; \
	$$tmp/kvserver -addr 127.0.0.1:0 -engine hashkv -lock asl 2>$$tmp/server.log & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server.log | head -1); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "net-smoke: server never reported its address"; cat $$tmp/server.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	$(GO) run ./cmd/kvbench -net -netaddr $$addr -mixes zipfw \
		-dur 200ms -warmup 50ms -keys 4096 || { cat $$tmp/server.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; \
	cat $$tmp/server.log; \
	rm -rf $$tmp; \
	echo "net-smoke: clean shutdown"

# wal-smoke proves the durability story with the REAL binaries and a
# REAL kill -9: serve with -wal, fill a deterministic keyset through
# cmd/kvcheck (interactive-class puts ack only after group commit),
# SIGKILL the loaded server, restart it on the same log directory, and
# verify every sync-acked key came back (bulk-class keys may legally be
# lost — kvcheck exits 1 only on a broken durability promise). Runs as
# a non-gating CI job next to net-smoke.
wal-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/kvserver ./cmd/kvserver; \
	$(GO) build -o $$tmp/kvcheck ./cmd/kvcheck; \
	$$tmp/kvserver -addr 127.0.0.1:0 -engine lsm -wal $$tmp/wal 2>$$tmp/server1.log & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server1.log | head -1); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "wal-smoke: server never reported its address"; cat $$tmp/server1.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	$$tmp/kvcheck -addr $$addr -n 2000 -mode fill || { cat $$tmp/server1.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill -9 $$pid; \
	wait $$pid 2>/dev/null || true; \
	$$tmp/kvserver -addr 127.0.0.1:0 -engine lsm -wal $$tmp/wal 2>$$tmp/server2.log & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server2.log | head -1); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "wal-smoke: restarted server never reported its address"; cat $$tmp/server2.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	$$tmp/kvcheck -addr $$addr -n 2000 -mode verify || { cat $$tmp/server2.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; \
	cat $$tmp/server2.log; \
	rm -rf $$tmp; \
	echo "wal-smoke: durability held across kill -9"

# soak is the chaos harness: cmd/kvsoak serves the REAL kvserver
# binary with fault injection armed on alternate incarnations, drives
# mixed-class traffic through the retrying client while kill -9ing and
# restarting the server, fuzzes the listener, and checks every read
# against a per-key model — exit 1 if any sync-acked write is lost or
# any read returns an impossible value. Runs as a non-gating CI job
# (soak-smoke) next to wal-smoke; locally, raise -dur for longer runs.
soak:
	@set -e; \
	tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/kvserver ./cmd/kvserver; \
	$(GO) build -o $$tmp/kvsoak ./cmd/kvsoak; \
	$$tmp/kvsoak -server $$tmp/kvserver -dur $${SOAK_DUR:-60s} -seed $${SOAK_SEED:-1} || { rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp

# bench-check keeps the repository's benchmark buildable: benchmark/ is
# a module of its own (`replace repro => ../`), so the root
# `go build ./... && go test ./...` never compiles it, and a program
# change that renames something it calls — or breaks its output checks,
# such as the corrupted-stamp test — would otherwise surface only when
# the benchmark is next run.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -race . && $(GO) build -o /dev/null .

# bench-pairs is the before/after procedure of a performance PR:
# `make bench-pairs W=batch-large N=10` runs the benchmark on the parent
# commit (checked out into a temporary git worktree) and on this
# checkout for N seeds, alternating which goes first, one run at a time,
# and prints q1/median/q3, delta of medians, pairs won and failed
# requests per end-to-end metric (scripts/bench-pairs.sh has the
# knobs). About 75 s per pair on a quiet host, so it is not part of ci.
bench-pairs:
	@test -n "$(W)" || { echo "usage: make bench-pairs W=<workload> [N=10]"; exit 2; }
	bash scripts/bench-pairs.sh $(W) $(or $(N),10)

# ci is what the workflow runs: the tier-1 gate, the race gate, the
# short smoke paths, the nested benchmark module's build and tests, and
# the network smoke. wal-smoke and soak are separate non-gating jobs in
# the workflow.
ci: check race short bench-check net-smoke

# microbench runs the layer microbenchmarks (ROADMAP 1c) with
# allocations reported: the wire codec and a served scan in
# internal/kvserver; the store's scan and batch paths, the pipeline's
# batch paths per caller class, the request ring and the future's
# park/complete handoff in internal/shardedkv. MICRO_COUNT repeats each
# row for benchstat.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -count $${MICRO_COUNT:-1} \
		./internal/kvserver ./internal/shardedkv

bench:
	$(GO) run ./cmd/kvbench -dur 500ms

# bench-json appends one trajectory record per row to
# BENCH_kvbench.json (CI uploads it as an artifact). The configuration
# is deliberately contended — few shards, a microsecond critical
# section, the write-heavy zipfian mix — so the pipe-* rows show real
# combining (ops_per_lock_take > 1), the rs-* rows reshard mid-run
# (splits/reshard_events in the records), and the pipe-ff-* rows show
# the fire-and-forget write path. The second run is the mixed-class
# NETWORK smoke load: a heavy critical section (so service time
# dominates scheduler noise on small runners) and a one-slot bulk
# admission gate — on the asl rows the interactive class's p99 should
# sit at or below the bulk class's (p99_interactive <= p99_bulk in the
# records), while the class-oblivious mutex rows show no separation.
# rs-* and net-* rows are trend data like everything else here: split
# counts and queueing depend on how fast skew accumulates inside the
# short measured window. The third run adds the durable rows: wal-*
# (plain store, group commit via commit leader election) and
# wal-pipe-* (pipeline, whole combiner batch per fsync) both carry
# ops_per_fsync — the group-commit figure of merit, which should sit
# well above 1 on wal-pipe-* and climb with the combine batch size.
# The fourth run is the biased-lock leg: a single big worker owning
# hot shards, so the bias-* and rs-pipe-bias-* rows carry the
# adopt/revoke counters (bias_adoptions, bias_revocations,
# bias_fast_acquires) and their ops_per_lock_take should hold level
# with the corresponding rs-pipe-* rows — the owner's fast path
# removes the RMW without costing the combiner its batching.
bench-json:
	$(GO) run ./cmd/kvbench -engines hashkv,lsm -mixes zipfw,zipf \
		-locks asl,mutex -pipeline -reshard -ff -shards 4 -cs 1us \
		-dur 500ms -warmup 150ms -json BENCH_kvbench.json
	$(GO) run ./cmd/kvbench -net -engines hashkv -mixes zipfw \
		-locks asl,mutex -pipeline -shards 4 -cs 100us -bulkinflight 1 \
		-dur 500ms -warmup 150ms -json BENCH_kvbench.json
	$(GO) run ./cmd/kvbench -engines hashkv -mixes zipfw \
		-locks asl -pipeline -wal -shards 4 -cs 1us \
		-dur 500ms -warmup 150ms -json BENCH_kvbench.json
	$(GO) run ./cmd/kvbench -engines hashkv -mixes zipfw \
		-locks asl -pipeline -reshard -bias -shards 4 -threads 8 \
		-bigs 1 -cs 1us -dur 500ms -warmup 150ms \
		-json BENCH_kvbench.json
