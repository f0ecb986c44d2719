#!/usr/bin/env bash
# Alternating parent/change runs for `perf.exe compare`:
#
#   bash bench/perf/pairs.sh BASE_CHECKOUT CHANGE_CHECKOUT OUT_DIR [PAIRS] [WORKLOAD...]
#
# For pair i (seed i) and each workload, runs the benchmark once in each
# checkout, base first on odd pairs and change first on even ones, with
# BENCHMARK.json's run_seconds.  Each run's output lands in
# OUT_DIR/{base,change}/<workload>.<i>.out; then
#
#   ./_build/default/bench/perf/perf.exe compare OUT_DIR/base OUT_DIR/change
#
# prints the verdicts.  PAIRS defaults to 10, the workloads to all four.
set -euo pipefail
base=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
pairs=${4:-10}
shift $(( $# < 4 ? $# : 4 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(olden-timed olden-functional serve-n8 fuzz-lockstep)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")
mkdir -p "$out/base" "$out/change"

run() { # side checkout workload seed
  (cd "$2" && bash bench/perf/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
    > "$out/$1/$3.$(printf %02d "$4").out"
}

for i in $(seq 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    if (( i % 2 )); then
      run base "$base" "$w" "$i"; run change "$change" "$w" "$i"
    else
      run change "$change" "$w" "$i"; run base "$base" "$w" "$i"
    fi
  done
done
