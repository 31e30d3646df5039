# Development targets. `make check` is the tier-1 gate; `make race`
# runs the race detector over every concurrency-bearing package; and
# `make ci` is the exact entrypoint .github/workflows/ci.yml calls.

GO ?= go
GOFMT ?= gofmt

# Every package whose tests exercise goroutines or whose code runs
# under shared locks: the root package's doc checks, the lock
# algorithms and their core feedback state, the sharded KV layer
# (including the flat-combining pipeline), the storage engines the
# shard locks guard, the workload/stats/harness plumbing, and the
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
	./internal/simlock \
	./internal/sim \
	./internal/amp

.PHONY: check build vet fmt-check sh-check test short race ci bench bench-check bench-pairs fig-diff pipe-grid microbench net-smoke wal-smoke soak fuzz-smoke

# The shard-lock contracts (ARCHITECTURE.md, "Enforced invariants") are
# checked by test: a runtime guard in internal/shardedkv that panics on
# a violation, and a source test that keeps the guard unbypassable.
# `test` therefore gates them.
check: vet fmt-check sh-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# sh-check parses every script under scripts/, and the benchmark's
# entry point, without running them.
sh-check:
	@for f in scripts/*.sh benchmark/run.sh; do bash -n "$$f" || exit 1; done

test:
	$(GO) test ./...

# Reduced smoke paths (figures run scaled-down reproductions; the
# shardedkv model-equivalence tests still drive every engine on both
# front ends under -short).
short:
	$(GO) test -short ./...

# The second line repeats the request queue's tests, so rare push/pop
# interleavings get many tries, and the drain tests, which check the
# combiner's bound and its aging of the recent-depth estimate.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=20 -run 'Queue|Ring|Drain' ./internal/shardedkv

# net-smoke proves the network front end end to end with the REAL
# binaries. Startup first: -wal naming a regular file must exit 1 with
# a one-line "open store" error, and an unknown -engine must exit 2 with
# a one-line "unknown -engine" error, neither with a panic. Then two
# legs, a plain store and one served through the combining pipeline
# (-pipeline): serve a volatile cmd/kvserver, write a deterministic
# keyset through cmd/kvcheck (1500 interactive + 500 bulk puts), read
# every key back (2000 gets), then SIGTERM the server and assert the
# graceful-shutdown contract: exit 0, "clean shutdown", and a final
# stats line with non-zero ops and "errors":0 for both classes. A last
# leg, faults, serves with -wal and an injected wal.fsync error: the
# fault must show (the fill fails, or the final stats line counts
# interactive errors), and SIGTERM must still exit 0 with a clean
# shutdown and no panic. The server binds port 0 and reports the kernel-chosen address on stderr,
# so concurrent jobs on a shared runner can never collide on (or
# accidentally smoke-test) each other's listener.
net-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	fail() { echo "net-smoke: $$1"; cat $$tmp/server.log; kill $$pid 2>/dev/null || true; rm -rf $$tmp; exit 1; }; \
	$(GO) build -o $$tmp/kvserver ./cmd/kvserver; \
	$(GO) build -o $$tmp/kvcheck ./cmd/kvcheck; \
	touch $$tmp/file; rc=0; \
	timeout 10 $$tmp/kvserver -addr 127.0.0.1:0 -wal $$tmp/file 2>$$tmp/server.log || rc=$$?; \
	[ $$rc -eq 1 ] || fail "-wal on a regular file: exit $$rc, want 1"; \
	grep -q '^kvserver: open store: ' $$tmp/server.log || fail "-wal on a regular file: no open store error"; \
	! grep -q 'panic:' $$tmp/server.log || fail "-wal on a regular file panicked"; \
	rc=0; \
	timeout 10 $$tmp/kvserver -addr 127.0.0.1:0 -engine nosuch 2>$$tmp/server.log || rc=$$?; \
	[ $$rc -eq 2 ] || fail "-engine nosuch: exit $$rc, want 2"; \
	grep -q '^kvserver: unknown -engine "nosuch"$$' $$tmp/server.log || fail "-engine nosuch: no unknown -engine error"; \
	! grep -q 'panic:' $$tmp/server.log || fail "-engine nosuch panicked"; \
	for leg in plain pipeline; do \
		case $$leg in pipeline) flags=-pipeline;; *) flags="";; esac; \
		$$tmp/kvserver -addr 127.0.0.1:0 -engine hashkv -lock asl $$flags 2>$$tmp/server.log & pid=$$!; \
		addr=""; \
		for i in $$(seq 1 100); do \
			addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server.log | head -1); \
			[ -n "$$addr" ] && break; \
			sleep 0.1; \
		done; \
		[ -n "$$addr" ] || fail "$$leg: server never reported its address"; \
		want=false; [ -z "$$flags" ] || want=true; \
		grep -q "pipeline=$$want) on " $$tmp/server.log || fail "$$leg: server does not report pipeline=$$want"; \
		$$tmp/kvcheck -addr $$addr -n 2000 -mode fill || fail "$$leg: fill failed"; \
		held=$$($$tmp/kvcheck -addr $$addr -n 2000 -mode verify) || fail "$$leg: verify failed"; \
		echo "$$held"; \
		case "$$held" in *"2000/2000 keys held"*) ;; *) fail "$$leg: a live server lost keys";; esac; \
		kill -TERM $$pid; \
		wait $$pid || fail "$$leg: server exited non-zero after SIGTERM"; \
		grep -q 'kvserver: clean shutdown' $$tmp/server.log || fail "$$leg: no clean shutdown line"; \
		stats=$$(grep 'kvserver: stats ' $$tmp/server.log | tail -1); \
		for class in interactive bulk; do \
			echo "$$stats" | grep -Eq "\"$$class\":\{\"ops\":[1-9][0-9]*,\"errors\":0," || fail "$$leg: final stats: $$class class has no ops, or errors"; \
		done; \
		cat $$tmp/server.log; \
		echo "net-smoke: $$leg: clean shutdown"; \
	done; \
	$$tmp/kvserver -addr 127.0.0.1:0 -wal $$tmp/wal -faults 'wal.fsync:nth=3:error' 2>$$tmp/server.log & pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server.log | head -1); \
		[ -n "$$addr" ] && break; \
		sleep 0.1; \
	done; \
	[ -n "$$addr" ] || fail "faults: server never reported its address"; \
	grep -q 'kvserver: fault injection armed: wal.fsync:nth=3:error' $$tmp/server.log || fail "faults: no fault injection armed line"; \
	filled=yes; $$tmp/kvcheck -addr $$addr -n 2000 -mode fill || filled=no; \
	kill -TERM $$pid; \
	wait $$pid || fail "faults: server exited non-zero after SIGTERM"; \
	! grep -q 'panic:' $$tmp/server.log || fail "faults: server panicked"; \
	grep -q 'kvserver: clean shutdown' $$tmp/server.log || fail "faults: no clean shutdown line"; \
	stats=$$(grep 'kvserver: stats ' $$tmp/server.log | tail -1); \
	if [ $$filled = yes ] && ! echo "$$stats" | grep -Eq '"interactive":\{"ops":[0-9]+,"errors":[1-9]'; then \
		fail "faults: the injected wal.fsync error never showed: fill succeeded and no interactive errors"; \
	fi; \
	cat $$tmp/server.log; \
	echo "net-smoke: faults: injected fsync error seen (fill ok: $$filled), clean shutdown"; \
	rm -rf $$tmp

# wal-smoke proves the durability story with the REAL binaries and a
# REAL kill -9, once per engine: lsm recovers through its snapshot
# capability, hashkv (the default engine) through the one-by-one replay
# Puts and the full-dump checkpoint over Range. Each leg serves with
# -wal, fills a deterministic keyset through cmd/kvcheck
# (interactive-class puts ack only after group commit), SIGKILLs the
# loaded server, restarts it on the same log directory, and verifies
# every sync-acked key came back (bulk-class keys may legally be lost —
# kvcheck exits 1 only on a broken durability promise). Runs as a
# non-gating CI job next to net-smoke.
wal-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	fail() { echo "wal-smoke: $$1"; cat $$tmp/server.log; kill $$pid 2>/dev/null || true; rm -rf $$tmp; exit 1; }; \
	serve() { \
		$$tmp/kvserver -addr 127.0.0.1:0 -engine $$1 -wal $$tmp/wal-$$1 2>$$tmp/server.log & pid=$$!; \
		addr=""; \
		for i in $$(seq 1 100); do \
			addr=$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9][0-9]*\)$$/\1/p' $$tmp/server.log | head -1); \
			[ -n "$$addr" ] && break; \
			sleep 0.1; \
		done; \
		[ -n "$$addr" ] || fail "$$1: server never reported its address"; \
	}; \
	$(GO) build -o $$tmp/kvserver ./cmd/kvserver; \
	$(GO) build -o $$tmp/kvcheck ./cmd/kvcheck; \
	for engine in lsm hashkv; do \
		serve $$engine; \
		$$tmp/kvcheck -addr $$addr -n 2000 -mode fill || fail "$$engine: fill failed"; \
		kill -9 $$pid; \
		wait $$pid 2>/dev/null || true; \
		serve $$engine; \
		$$tmp/kvcheck -addr $$addr -n 2000 -mode verify || fail "$$engine: verify failed after kill -9"; \
		kill -TERM $$pid; \
		wait $$pid || fail "$$engine: restarted server exited non-zero after SIGTERM"; \
		cat $$tmp/server.log; \
		echo "wal-smoke: $$engine: durability held across kill -9"; \
	done; \
	rm -rf $$tmp

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

# fuzz-smoke runs each native fuzz target for FUZZ_TIME (10s by
# default): the wire codec's request and response decoders, and the
# fault-schedule parser behind -faults. Go writes a failing input under
# the package's testdata/fuzz/; check it in as a seed together with its
# fix, so the plain test run replays it from then on. Runs as a
# non-gating CI job next to wal-smoke and soak-smoke.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZ_TIME) ./internal/kvserver
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponsePayloads$$' -fuzztime $(FUZZ_TIME) ./internal/kvserver
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZ_TIME) ./internal/fault

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

# fig-diff is the check of a refactor of the reproduction half:
# `make fig-diff FIGS="1 8a 8h"` builds cmd/ampsim on the parent commit
# and on this checkout, runs the figures once per side and fails on any
# difference but the "regenerated in" timing lines (the Fig. 8d trace
# CSV included). FIGS defaults to all, which takes minutes, so it is not
# part of ci; BASE and PARENT_DIR work as for bench-pairs.
fig-diff:
	bash scripts/fig-diff.sh $(FIGS)

# pipe-grid is the in-process pipeline cell: cmd/kvbench on hashkv,
# the zipf and zipfw mixes, the asl lock beside its pipe-asl row, 4
# shards, half the workers big, at 8 and then 32 threads, 1 s per row.
# Each invocation prints one table plus the combining counters on
# stderr. Rows are single runs, so a decision repeats the target (5
# alternating runs per side at least) and compares medians. Not part
# of ci.
pipe-grid:
	@for t in 8 32; do \
		echo "pipe-grid: -threads $$t -bigs $$((t / 2))"; \
		$(GO) run ./cmd/kvbench -engines hashkv -mixes zipf,zipfw -locks asl -pipeline \
			-shards 4 -threads $$t -bigs $$((t / 2)) -dur 1s || exit 1; \
	done

# ci is what the workflow runs: the tier-1 gate, the race gate, the
# short smoke paths, the nested benchmark module's build and tests, and
# the network smoke. wal-smoke, soak and fuzz-smoke are separate
# non-gating jobs in the workflow.
ci: check race short bench-check net-smoke

# microbench runs the layer microbenchmarks (ROADMAP 1c) with
# allocations reported: the wire codec and a served scan in
# internal/kvserver; a served 64-byte Get and Put round trip over
# loopback in internal/kvclient; the store's scan path, its batch paths
# per caller class, the request queue and the future's
# park/complete handoff in internal/shardedkv; the shard lock's
# uncontended acquire/release pair per class, and the contended pair of
# each serving lock choice, in internal/locks; one epoch start/end
# pair (the paper's ~93-cycle epoch cost) in internal/core, which has
# no other runner; a forced GC over a loaded tree, an ascending load
# and overwrites in internal/storage/btree; a forced GC over a loaded
# hash table, on the hashkv workloads' two store shapes, a 1<<18-key
# load into an empty table and overwrites of a loaded one, in
# internal/storage/hashkv.
# MICRO_COUNT repeats each row for benchstat.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -count $${MICRO_COUNT:-1} \
		./internal/kvserver ./internal/kvclient ./internal/shardedkv ./internal/locks \
		./internal/core ./internal/storage/btree ./internal/storage/hashkv

bench:
	$(GO) run ./cmd/kvbench -dur 500ms
