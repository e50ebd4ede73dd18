#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload corpus-eval|tune|serve --seed N --seconds S --trace 0|1
# The dune cache is off so the build reads and writes only the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
