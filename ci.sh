#!/bin/sh
# CI entry point: build, run the tier-1 test suite and the benchmark's
# self-test, then smoke the pipeline with the differential oracle — 100
# synthetic programs at a fixed seed, compiled at O0-O3 under both
# pipelines with the pass-boundary sanitizer on, executed on the VM and
# diffed against the source interpreter — then exercise the persistent
# artifact cache (cold/warm byte-identity, disk hits, clear) and run the
# benchmark-regression gate against the committed BENCH_baseline.json.
#
# Deterministic up to timing: lines bracketed [like this] carry wall
# times and lines starting with '#' carry volatile measurements; the CI
# determinism leg strips those (plus /tmp paths) and diffs the rest of
# two runs byte-for-byte.
set -eu
cd "$(dirname "$0")"

scratch="$(mktemp -d /tmp/debugtuner-ci.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT INT TERM

# Byte-diff two outputs. On mismatch, fail with the head of the unified
# diff (scratch paths normalized, so two runs report identically) and
# the exact commands that reproduce the two sides — a CI failure must
# be actionable from the log alone.
ci_diff() {
  # $1/$2: files to compare; $3: one-line repro hint
  if ! diff -u "$1" "$2" > "$scratch/ci-diff.out" 2>&1; then
    echo "ci: byte-diff FAILED: $(basename "$1") vs $(basename "$2")" >&2
    sed "s#$scratch#SCRATCH#g" "$scratch/ci-diff.out" | head -40 >&2
    echo "ci: reproduce with: $3" >&2
    exit 1
  fi
}

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== perfbench self-test (deterministic counts and digests) =="
# Two traced runs of one seed per benchmark workload must agree exactly
# on the deterministic work counts and the table/frontier/response
# digests, and the per-layer accounting must add up (perfbench/README.md).
dune build ./perfbench/selftest.exe && ./_build/default/perfbench/selftest.exe 11

echo "== differential fuzz smoke (100 programs, seed 1) =="
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  | tee "$scratch/check-fast.out"

echo "== vm conformance smoke (reference core, byte-identical stdout) =="
# DEBUGTUNER_VM=reference swaps every execution onto the pre-decode
# reference interpreter; the whole fuzz matrix — verdicts, costs,
# sanitizer counters — must match the fast core's stdout byte for byte.
DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- \
  check --fuzz 100 --seed 1 > "$scratch/check-reference.out"
ci_diff "$scratch/check-fast.out" "$scratch/check-reference.out" \
  "DEBUGTUNER_VM=reference dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1"

echo "== observability smoke (profile zlib at O2, validate trace) =="
# `profile --trace` self-validates the written document (balanced B/E
# nesting, >= 1 span per executed pass) and exits non-zero on failure.
# Its stdout is a wall-time table (inherently run-dependent), so it
# goes to the scratch dir, keeping this script's output diffable.
dune exec bin/debugtuner_cli.exe -- profile -p zlib -O2 --pipeline gcc \
  --trace "$scratch/trace.json" > "$scratch/profile.out"

echo "== cache smoke (check twice on one fresh cache dir) =="
# A cold run populates the store; the warm run must serve every oracle
# verdict from disk with byte-identical stdout. Then `cache clear`
# must leave the directory with no entries.
mkdir "$scratch/cache"
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  --cache-dir "$scratch/cache" --json "$scratch/check-cold.json" \
  > "$scratch/check-cold.out"
dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 \
  --cache-dir "$scratch/cache" --json "$scratch/check-warm.json" \
  > "$scratch/check-warm.out"
ci_diff "$scratch/check-cold.out" "$scratch/check-warm.out" \
  "dune exec bin/debugtuner_cli.exe -- check --fuzz 100 --seed 1 --cache-dir DIR (twice)"
cat "$scratch/check-cold.out"
grep -q '"name": "store/oracle/hits", "value": [1-9]' "$scratch/check-warm.json" || {
  echo "cache smoke: warm run reported no disk hits" >&2
  exit 1
}
dune exec bin/debugtuner_cli.exe -- cache clear --cache-dir "$scratch/cache" \
  | sed "s#$scratch#SCRATCH#g"
remaining="$(find "$scratch/cache/objects" -type f 2>/dev/null | wc -l)"
[ "$remaining" -eq 0 ] || {
  echo "cache smoke: $remaining entr(ies) survived cache clear" >&2
  exit 1
}

echo "== prefix-cache smoke (check --fuzz 50, planner on vs off) =="
# Pass-prefix incremental compilation must be invisible everywhere but
# wall clock: the same fuzz matrix with the planner disabled has to
# produce byte-identical verdicts, sanitizer counters and stdout.
dune exec bin/debugtuner_cli.exe -- check --fuzz 50 --seed 1 \
  --json "$scratch/check-prefix-on.json" > "$scratch/check-prefix-on.out"
dune exec bin/debugtuner_cli.exe -- check --fuzz 50 --seed 1 --no-prefix-cache \
  --json "$scratch/check-prefix-off.json" > "$scratch/check-prefix-off.out"
ci_diff "$scratch/check-prefix-on.json" "$scratch/check-prefix-off.json" \
  "dune exec bin/debugtuner_cli.exe -- check --fuzz 50 --seed 1 --json J [--no-prefix-cache]"
ci_diff "$scratch/check-prefix-on.out" "$scratch/check-prefix-off.out" \
  "dune exec bin/debugtuner_cli.exe -- check --fuzz 50 --seed 1 [--no-prefix-cache]"

echo "== daemon smoke (serve + --connect, byte-identical to direct CLI) =="
# Start a daemon on a scratch socket (plus a TCP listener on an
# ephemeral port), drive rank/check/profile requests through --connect
# clients, and byte-diff rank/check stdout against direct (in-process)
# CLI runs. profile output is a wall-time table, so only its exit
# status is asserted. The daemon runs with --no-cache so both paths
# compute from the same cold state, and must exit 0 on SIGTERM after
# draining in-flight work and removing its socket.
cli=_build/default/bin/debugtuner_cli.exe
sock="$scratch/daemon.sock"
"$cli" serve --socket "$sock" --listen localhost:0 --no-cache \
  > "$scratch/daemon.log" 2>&1 &
daemon=$!
tries=0
until [ -S "$sock" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "daemon smoke: socket never appeared" >&2; exit 1; }
  sleep 0.1
done
"$cli" rank -k 5 --connect "$sock" > "$scratch/rank-daemon.out"
"$cli" rank -k 5 > "$scratch/rank-direct.out"
ci_diff "$scratch/rank-direct.out" "$scratch/rank-daemon.out" \
  "debugtuner_cli rank -k 5 [--connect SOCK]"
"$cli" check --fuzz 20 --seed 1 --connect "$sock" > "$scratch/check-daemon.out"
"$cli" check --fuzz 20 --seed 1 --json "$scratch/check-direct.json" \
  > "$scratch/check-direct.out"
ci_diff "$scratch/check-direct.out" "$scratch/check-daemon.out" \
  "debugtuner_cli check --fuzz 20 --seed 1 [--connect SOCK]"
"$cli" search --budget 8 --no-cache --connect "$sock" \
  -o "$scratch/front-daemon.json" > "$scratch/search-daemon.out"
"$cli" search --budget 8 --no-cache \
  -o "$scratch/front-direct.json" > "$scratch/search-direct.out"
ci_diff "$scratch/front-direct.json" "$scratch/front-daemon.json" \
  "debugtuner_cli search --budget 8 --no-cache -o F [--connect SOCK]"
"$cli" profile -p zlib -O2 --pipeline gcc --connect "$sock" > /dev/null

echo "== daemon TCP concurrency leg (4 parallel --connect clients) =="
# The daemon reported its ephemeral TCP port at startup; four clients
# hammer it at once over TCP — the executor pool may interleave them
# freely, but every response must still be byte-identical to a direct
# in-process run of the same command, and the check client's own
# sanitize/* counters (its request scope) equal the direct run's.
port="$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$scratch/daemon.log")"
[ -n "$port" ] || { echo "daemon smoke: no TCP port in daemon log" >&2; exit 1; }
"$cli" rank -k 5 --connect "localhost:$port" > "$scratch/rank-tcp.out" &
tcp1=$!
"$cli" check --fuzz 20 --seed 1 --connect "localhost:$port" \
  --json "$scratch/check-tcp.json" > "$scratch/check-tcp.out" &
tcp2=$!
"$cli" measure -p zlib -l O2 --connect "localhost:$port" > "$scratch/measure-zlib-tcp.out" &
tcp3=$!
"$cli" measure -p bzip2 -l O1 --connect "localhost:$port" > "$scratch/measure-bzip2-tcp.out" &
tcp4=$!
for pid in "$tcp1" "$tcp2" "$tcp3" "$tcp4"; do
  wait "$pid" || { echo "daemon smoke: a concurrent TCP client failed" >&2; exit 1; }
done
"$cli" measure -p zlib -l O2 > "$scratch/measure-zlib-direct.out"
"$cli" measure -p bzip2 -l O1 > "$scratch/measure-bzip2-direct.out"
ci_diff "$scratch/rank-direct.out" "$scratch/rank-tcp.out" \
  "debugtuner_cli rank -k 5 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/check-direct.out" "$scratch/check-tcp.out" \
  "debugtuner_cli check --fuzz 20 --seed 1 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/check-direct.json" "$scratch/check-tcp.json" \
  "debugtuner_cli check --fuzz 20 --seed 1 --json J [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/measure-zlib-direct.out" "$scratch/measure-zlib-tcp.out" \
  "debugtuner_cli measure -p zlib -l O2 [--connect HOST:PORT] (4 parallel clients)"
ci_diff "$scratch/measure-bzip2-direct.out" "$scratch/measure-bzip2-tcp.out" \
  "debugtuner_cli measure -p bzip2 -l O1 [--connect HOST:PORT] (4 parallel clients)"

echo "== daemon drain (SIGTERM with a request in flight) =="
# SIGTERM lands while a check request is still executing; the daemon
# must finish and answer it (client exits 0 with the direct run's
# bytes) before removing the socket and reporting a clean stop.
"$cli" check --fuzz 30 --seed 2 --connect "$sock" > "$scratch/check-drain.out" &
drain=$!
sleep 1
kill -TERM "$daemon"
wait "$daemon" || { echo "daemon smoke: daemon exited non-zero" >&2; exit 1; }
wait "$drain" || { echo "daemon smoke: in-flight request was dropped on shutdown" >&2; exit 1; }
"$cli" check --fuzz 30 --seed 2 > "$scratch/check-drain-direct.out"
ci_diff "$scratch/check-drain-direct.out" "$scratch/check-drain.out" \
  "debugtuner_cli check --fuzz 30 --seed 2 [--connect SOCK, SIGTERM mid-flight]"
[ ! -S "$sock" ] || { echo "daemon smoke: socket survived shutdown" >&2; exit 1; }
grep -q "daemon stopped" "$scratch/daemon.log" || {
  echo "daemon smoke: no clean shutdown message" >&2
  exit 1
}

echo "== shard smoke (2-shard corpus run + merge, byte-identical to single process) =="
# Two single-shard runs coordinate only through the shared cache dir,
# each writes a JSON partial, and `merge` must reproduce the
# single-process tables byte for byte. A bad shard spec must die with
# a one-line error, and a merge missing a shard must be refused.
mkdir "$scratch/shard-cache" "$scratch/partials"
shard_args="experiments --seed 3 --corpus 12 --config gcc-O2 --config clang-O1"
"$cli" $shard_args --cache-dir "$scratch/shard-cache" > "$scratch/corpus-single.out"
"$cli" $shard_args --shard 1/2 --cache-dir "$scratch/shard-cache" \
  --partial-dir "$scratch/partials" > /dev/null
"$cli" $shard_args --shard 2/2 --cache-dir "$scratch/shard-cache" \
  --partial-dir "$scratch/partials" > /dev/null
"$cli" merge --partial-dir "$scratch/partials" > "$scratch/corpus-merged.out"
ci_diff "$scratch/corpus-single.out" "$scratch/corpus-merged.out" \
  "debugtuner_cli experiments --seed 3 --corpus 12 ... [--shard I/2] + merge"
cat "$scratch/corpus-single.out"
if "$cli" $shard_args --shard 3/2 > /dev/null 2> "$scratch/shard-err.out"; then
  echo "shard smoke: --shard 3/2 was accepted" >&2
  exit 1
fi
grep -q "invalid shard spec" "$scratch/shard-err.out" || {
  echo "shard smoke: bad spec did not produce the one-line error" >&2
  exit 1
}
if "$cli" merge "$scratch/partials/shard-1-of-2.json" > /dev/null 2>&1; then
  echo "shard smoke: merge accepted an incomplete shard set" >&2
  exit 1
fi

echo "== search smoke (seeded frontier, resumable from the cache) =="
# The same (strategy, budget, seed) must print a byte-identical
# frontier JSON whether the evaluations run cold or come back from the
# persistent store, and the warm run must actually resume (report its
# evaluations as served from the store).
mkdir "$scratch/search-cache"
"$cli" search --budget 8 --seed 1 --cache-dir "$scratch/search-cache" \
  -o "$scratch/front-cold.json" > "$scratch/search-cold.out"
"$cli" search --budget 8 --seed 1 --cache-dir "$scratch/search-cache" \
  -o "$scratch/front-warm.json" > "$scratch/search-warm.out"
ci_diff "$scratch/front-cold.json" "$scratch/front-warm.json" \
  "debugtuner_cli search --budget 8 --seed 1 --cache-dir DIR -o F (twice)"
grep -q "(8 served from the store)" "$scratch/search-warm.out" || {
  echo "search smoke: warm search did not resume from the store" >&2
  exit 1
}

echo "== benchmark regression gate (table1+ranking+serve+vm+shard+search cold+warm vs BENCH_baseline.json) =="
# Cold and warm runs share one fresh cache dir; the warm run must be
# several times faster with a high disk hit rate, the cold run must not
# regress past the committed baseline, the cold ranking sweep must
# engage the pass-prefix planner, the vm scenario must show the
# direct-threaded core beating the reference interpreter, and the
# shard scenario's 2-process critical path must be well under the
# single-process run, and the searched Pareto front must weakly
# dominate every greedy dy point, and the serve scenario's 4-client
# concurrent phase must beat the serialized (inline-execution) phase
# (see bench/compare.ml; bounds tunable via DEBUGTUNER_BENCH_TOLERANCE
# / _WARM_FLOOR / _HIT_FLOOR / _PREFIX_FLOOR / _VM_FLOOR /
# _SHARD_FLOOR / _SEARCH_FLOOR / _SERVE_CONCURRENCY_FLOOR).
#
# Parallel speedup needs cores: the executor pool sizes itself to
# min(4, cores), so on a 4+-core runner we demand a real 2.5x win,
# on 2-3 cores a modest one, and on a single core we only assert the
# pool does not collapse throughput (domain GC sync makes true
# speedup impossible there).
cores="$( (nproc) 2>/dev/null || echo 1)"
if [ "$cores" -ge 4 ]; then
  DEBUGTUNER_SERVE_CONCURRENCY_FLOOR=2.5
elif [ "$cores" -ge 2 ]; then
  DEBUGTUNER_SERVE_CONCURRENCY_FLOOR=1.2
else
  DEBUGTUNER_SERVE_CONCURRENCY_FLOOR=0.45
fi
export DEBUGTUNER_SERVE_CONCURRENCY_FLOOR
mkdir "$scratch/bench-cache"
dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir "$scratch/bench-cache" \
  --json "$scratch/bench-cold.json" > "$scratch/bench-cold.out"
dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir "$scratch/bench-cache" \
  --json "$scratch/bench-warm.json" > "$scratch/bench-warm.out"
# Warm tables must be byte-identical to cold ones (only the bracketed
# timing lines may differ).
grep -v '^\[' "$scratch/bench-cold.out" > "$scratch/bench-cold.flat"
grep -v '^\[' "$scratch/bench-warm.out" > "$scratch/bench-warm.flat"
ci_diff "$scratch/bench-cold.flat" "$scratch/bench-warm.flat" \
  "dune exec bench/main.exe -- --only table1 ranking serve vm shard search --cache-dir DIR (twice)"
dune exec bench/compare.exe -- BENCH_baseline.json \
  "$scratch/bench-cold.json" "$scratch/bench-warm.json"

echo "== ci green =="
