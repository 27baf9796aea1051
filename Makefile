.PHONY: all build test check loc bench bench-smoke bench-qerror bench-server bench-mvcc bench-commit fuzz torture clean

all: build

build:
	dune build

test:
	dune runtest

# tier-1 gate: everything CI runs on each change, in ci.yml's order and with
# its arguments (keep the two in step)
check: build test
	dune build @bench-smoke
	BENCH_SMOKE=1 BENCH_ENFORCE_CACHE_SPEEDUP=1 dune exec bench/main.exe -- s5b
	BENCH_SMOKE=1 BENCH_ENFORCE_QERROR=1 dune exec bench/main.exe -- qerr
	BENCH_SMOKE=1 BENCH_ENFORCE_SERVER=1 dune exec bench/main.exe -- srv
	BENCH_SMOKE=1 BENCH_ENFORCE_MVCC=1 dune exec bench/main.exe -- mvcc
	BENCH_SMOKE=1 BENCH_ENFORCE_COMMIT=1 dune exec bench/main.exe -- commit
	dune exec fuzz/fuzz_main.exe -- --seed 42 --count 300
	dune exec torture/torture_main.exe -- --seed 42 --count 5 --crash-every 5
	dune exec torture/torture_main.exe -- --seed 42 --count 1 --break-commit-filter
	dune exec fuzz/fuzz_main.exe -- --seed 42 --count 5 --break-invalidation

# the quality numbers ROADMAP.md quotes, with the commands it cites: lines
# of lib/ (.ml + .mli) and the vals declared in lib/*/*.mli, in lib/rss +
# lib/catalog, in session.mli + database.mli and in the executor's entry
# points, executor.mli + cursor.mli (data, not a gate)
loc:
	@printf 'lib/ lines (.ml + .mli):         '; cat lib/*/*.ml lib/*/*.mli | wc -l
	@printf 'lib/*/*.mli vals:                '; cat lib/*/*.mli | grep -c '^\s*val'
	@printf 'lib/rss + lib/catalog vals:      '; cat lib/rss/*.mli lib/catalog/*.mli | grep -c '^\s*val'
	@printf 'session.mli + database.mli vals: '; cat lib/engine/session.mli lib/engine/database.mli | grep -c '^\s*val'
	@printf 'executor.mli + cursor.mli vals:  '; cat lib/executor/executor.mli lib/executor/cursor.mli | grep -c '^\s*val'

# differential fuzzing: random queries cross-checked against the naive
# oracle under every engine configuration (see DESIGN.md); FUZZ_SEED and
# FUZZ_COUNT override the defaults
FUZZ_SEED ?= 42
FUZZ_COUNT ?= 300
fuzz:
	dune exec fuzz/fuzz_main.exe -- --seed $(FUZZ_SEED) --count $(FUZZ_COUNT)

# crash-recovery torture: random transactional workloads crashed at every
# enabled failpoint (torn WAL tails, mid-eviction, mid-split, ...), each
# surviving image recovered and compared against the committed-prefix
# oracle; TORTURE_CRASH_EVERY > 1 samples every k-th crash point
TORTURE_SEED ?= 42
TORTURE_COUNT ?= 20
TORTURE_CRASH_EVERY ?= 1
torture:
	dune exec torture/torture_main.exe -- --seed $(TORTURE_SEED) \
	  --count $(TORTURE_COUNT) --crash-every $(TORTURE_CRASH_EVERY)

# full bench suite at paper-scale inputs (writes BENCH_*.json)
bench:
	dune exec bench/main.exe

# same suite on tiny inputs (BENCH_SMOKE=1) — seconds, not minutes
bench-smoke:
	dune build @bench-smoke

# cardinality estimate quality only (writes BENCH_qerror.json): q-error
# quantiles of the TABLE 1 constants vs histogram estimation over a fuzz
# workload and a Zipf battery; BENCH_ENFORCE_QERROR=1 turns it into a gate
bench-qerror:
	dune exec bench/main.exe -- qerr

# server throughput only (writes BENCH_server.json): sustained QPS over the
# wire protocol at 1/2/4 connections, simple-query text vs the prepared
# Parse/Execute path (the QPS ratio is data); BENCH_ENFORCE_SERVER=1 gates on
# the sessions' counters: every point-select Execute is a plan-cache hit with
# no miss and no statement parsed, every Simple request parses one, every
# request that reaches a plan (DML included) probes the cache once, and each
# statement shape misses at most once
bench-server:
	dune exec bench/main.exe -- srv

# MVCC read scaling only (writes BENCH_mvcc.json): closed-loop point-SELECT
# QPS at 1/2/4 connections against hot keys a background writer churns while
# holding its transaction open; BENCH_ENFORCE_MVCC=1 gates 4-conn prepared
# QPS >= 2x 1-conn — snapshot reads must never queue behind the writer
bench-mvcc:
	dune exec bench/main.exe -- mvcc

# group commit only (writes BENCH_commit.json, E12): closed-loop auto-commit
# INSERT QPS at 1/2/4/8 connections, leader-based batched flushes vs one
# flush per commit against a simulated 200us fsync; BENCH_ENFORCE_COMMIT=1
# gates 8-conn group >= 2x per-commit
bench-commit:
	dune exec bench/main.exe -- commit

clean:
	dune clean
