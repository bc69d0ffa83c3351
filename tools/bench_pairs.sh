#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload.
#
#   tools/bench_pairs.sh PARENT_TC_BENCH CHANGE_TC_BENCH --workload W
#                        --pairs N [--seed S] [--seconds T] [--out DIR]
#
# Copies both tc_bench binaries to paths of equal length, then runs N
# pairs: pair i runs both binaries once with seed S+i, the parent first in
# even pairs and the change first in odd ones. Both runs of a pair get the
# same argument string byte for byte except the a/b that names the side,
# because a run's numbers move with the length of its arguments (a longer
# --git-rev or --trace-out shifted probe_portable_shm p50 by ~12%). Writes
# DIR/parent.json and DIR/change.json as run.sh result sets ({"runs":[…]},
# pair i at index i), prints for every end-to-end metric how many pairs
# each side read better (one "wins METRIC …" line each, in
# BENCHMARK.json's direction; a tie counts for neither side, and a pair
# with a missing run is reported and counts for neither), and judges the
# sets with `tc_bench --compare`, whose exit status this script returns.
# Run length: BENCHMARK.json's run_seconds unless --seconds is given. DIR
# defaults to a new directory under ${TMPDIR:-/tmp}.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_TC_BENCH CHANGE_TC_BENCH --workload W --pairs N" \
       "[--seed S] [--seconds T] [--out DIR]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent_bin="$1"
change_bin="$2"
shift 2
workload=""
pairs=""
seed=1
seconds=()
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage
for bin in "$parent_bin" "$change_bin"; do
  [ -x "$bin" ] || { echo "$0: not an executable: $bin" >&2; exit 2; }
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -z "$out" ]; then
  out="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
fi
mkdir -p "$out/a" "$out/b"
out="$(cd "$out" && pwd)"
cp "$parent_bin" "$out/a/tc_bench"
cp "$change_bin" "$out/b/tc_bench"
# One copy of BENCHMARK.json serves both sides, so its path is identical.
cp "$root/BENCHMARK.json" "$out/BENCHMARK.json"

# run SIDE PAIR: one measured run; its table goes to stderr.
run() {
  local side="$1" pair="$2"
  "$out/$side/tc_bench" --workload "$workload" --seed "$((seed + pair))" \
    "${seconds[@]}" --trace 0 --out "$out/$side/run-$pair.json" \
    --git-rev x --git-dirty 0 --benchmark "$out/BENCHMARK.json" >&2 ||
    echo "$0: $side run of pair $pair failed" >&2
}

for ((i = 0; i < pairs; i++)); do
  echo "pair $((i + 1))/$pairs" >&2
  if ((i % 2 == 0)); then
    run a "$i"
    run b "$i"
  else
    run b "$i"
    run a "$i"
  fi
done

# result_set SIDE FILE: the side's runs in pair order.
result_set() {
  local side="$1" sep=""
  printf '{"runs":[\n'
  for ((i = 0; i < pairs; i++)); do
    if [ -f "$out/$side/run-$i.json" ]; then
      printf '%s' "$sep"
      cat "$out/$side/run-$i.json"
      sep=","
    fi
  done
  printf ']}\n'
}
result_set a > "$out/parent.json"
result_set b > "$out/change.json"
echo "result sets: $out/parent.json $out/change.json" >&2

# The pairs each side read better, per end-to-end metric: the count the
# nine-in-ten rule for a claimed gain is judged on.
python3 - "$out" "$pairs" <<'EOF' || echo "$0: could not count wins" >&2
import json, os, sys

out, pairs = sys.argv[1], int(sys.argv[2])
with open(os.path.join(out, "BENCHMARK.json")) as f:
    end_to_end = json.load(f)["end_to_end"]

def metrics(side, pair):
    try:
        with open(os.path.join(out, side, "run-%d.json" % pair)) as f:
            return json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        return None

complete = []
for pair in range(pairs):
    parent, change = metrics("a", pair), metrics("b", pair)
    missing = [side for side, run in (("parent", parent), ("change", change))
               if run is None]
    if missing:
        print("pair %d: no %s run, counts for neither side"
              % (pair + 1, " and no ".join(missing)))
    else:
        complete.append((parent, change))

for metric in end_to_end:
    name, higher = metric["name"], metric["better"] == "higher"
    won = {"change": 0, "parent": 0}
    for parent, change in complete:
        if name in parent and name in change:
            a, b = parent[name]["value"], change[name]["value"]
            if a != b:
                won["change" if (b > a) == higher else "parent"] += 1
    print("wins %s (%s is better): change %d, parent %d, neither %d of %d"
          " pairs" % (name, metric["better"], won["change"], won["parent"],
                      pairs - won["change"] - won["parent"], pairs))
EOF
exec "$out/b/tc_bench" --compare "$out/parent.json" "$out/change.json" \
  --benchmark "$out/BENCHMARK.json"
