#!/usr/bin/env bash
# The benchmark's one command. Builds tc_bench from source into
# build-bench/ at the repository root (build output goes to stderr), then:
#
#   run.sh [--seed S] [--runs N] [--out F]
#       Every workload in its own process: N measured runs (seeds S ..
#       S+N-1) and one traced run each. Prints every metric with its unit,
#       writes all runs as one JSON result set to F (default
#       build-bench/result.json), and exits non-zero if any op failed.
#   run.sh --workload W [--seed S] [--trace 0|1]
#       One run of one workload; the last line of stdout is its result.
#   run.sh --quick
#       Every workload at 1/50 of its op counts, one trial, answers only.
#   run.sh --compare PARENT.json CHANGE.json
#       Judges one result set against another with BENCHMARK.json's bounds.
#
# Every run lasts BENCHMARK.json's run_seconds. --seconds T is accepted
# because the benchmark harness passes run_seconds that way; another value
# is only for sizing experiments.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

seed=1
seconds=()
runs=1
trace=0
workload=""
out="$build/result.json"
mode=all
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; mode=one; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --quick) mode=quick; shift ;;
    --compare) mode=compare; parent="$2"; change="$3"; shift 3 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# A failed configure leaves no Makefile, so the next run configures again.
if [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
bench="$build/tc_bench"

rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=0
if [ "$rev" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  dirty=1
fi
run_args=(--git-rev "$rev" --git-dirty "$dirty"
          --benchmark "$root/BENCHMARK.json")

case "$mode" in
  quick) exec "$bench" --quick ;;
  compare) exec "$bench" --compare "$parent" "$change" \
             --benchmark "$root/BENCHMARK.json" ;;
  one)
    exec "$bench" --workload "$workload" --seed "$seed" "${seconds[@]}" \
      --trace "$trace" --trace-out "$build/trace-$workload.json" \
      "${run_args[@]}" ;;
esac

mkdir -p "$build/runs"
files=()
status=0
# Each run's table goes to stdout; its JSON line is dropped (the --out file
# holds the full record).
run() {
  files+=("$1")
  rm -f "$1"
  shift
  "$bench" "$@" "${seconds[@]}" --out "${files[-1]}" "${run_args[@]}" |
    sed '$d' || status=1
}
for w in $("$bench" --list); do
  for ((i = 0; i < runs; i++)); do
    run "$build/runs/$w-$((seed + i)).json" --workload "$w" \
      --seed "$((seed + i))" --trace 0
  done
  run "$build/runs/$w-traced.json" --workload "$w" --seed "$seed" --trace 1 \
    --trace-out "$build/trace-$w.json"
done
{
  printf '{"runs":[\n'
  sep=""
  for f in "${files[@]}"; do
    if [ -f "$f" ]; then
      printf '%s' "$sep"
      cat "$f"
      sep=","
    fi
  done
  printf ']}\n'
} > "$out"
for f in "${files[@]}"; do
  if [ ! -f "$f" ] || ! grep -q '"correct":true' "$f"; then
    echo "run.sh: failed ops or a failed run: $f" >&2
    status=1
  fi
done
echo "result set: $out"
exit "$status"
