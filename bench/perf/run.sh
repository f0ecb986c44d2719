#!/usr/bin/env bash
# Build the benchmark from source and run it, from the root of a
# checkout:
#
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The build goes to ./_build (dune's shared cache is turned off so nothing
# is written outside the checkout).  perf.exe's standard output is the
# result; the build's messages go to standard error.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
