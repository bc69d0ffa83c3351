#!/usr/bin/env bash
# Checks that the deterministic sim trajectory reproduces the committed
# files exactly:
#   * BENCH_dapc.json (fig5-fig12 + the async window sweep) is regenerated
#     and must be byte-identical (cmp) to the committed file;
#   * every *_sim document that fig_workloads --backends sim,
#     fig_mt_scale --backends sim and fig_collectives write must equal, as
#     JSON, the same-named document in the committed BENCH_workloads.json
#     or BENCH_shm.json.
# BENCH_tsi.json is not compared: it carries a wall-clock field
# (real_host_jit_ms), and its uncached cells charge the bitcode archive's
# bytes, which embed the host CPU name (the host entry's `cpu`), so they
# are host-specific to a few bytes. The check runs the full-size sweeps, so
# TC_BENCH_FAST is unset here; expect about a minute on a 4-core host.
#
# Usage: tools/check_sim_trajectory.sh <build-dir>
# Exits 0 when everything matches, 1 on a difference, 2 on bad usage.
set -euo pipefail

build_dir=${1:?usage: tools/check_sim_trajectory.sh <build-dir>}
root=$(cd "$(dirname "$0")/.." && pwd)
unset TC_BENCH_FAST

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

"$root/tools/run_bench_json.sh" "$build_dir" "$tmp_dir" --only dapc \
  > /dev/null
status=0
if cmp "$tmp_dir/BENCH_dapc.json" "$root/BENCH_dapc.json"; then
  echo "BENCH_dapc.json: identical"
else
  echo "BENCH_dapc.json: differs from the committed file" >&2
  status=1
fi

"$build_dir/fig_workloads" --backends sim --json "$tmp_dir/sim.json" \
  > /dev/null
"$build_dir/fig_mt_scale" --backends sim --json "$tmp_dir/sim.json" \
  > /dev/null
"$build_dir/fig_collectives" --json "$tmp_dir/sim.json" > /dev/null

python3 - "$tmp_dir/sim.json" "$root/BENCH_workloads.json" \
  "$root/BENCH_shm.json" <<'EOF' || status=1
import json
import sys

fresh_path, *committed_paths = sys.argv[1:]
committed = {}
for path in committed_paths:
    for doc in json.load(open(path)):
        committed[doc["bench"]] = doc
checked = 0
failed = False
for doc in json.load(open(fresh_path)):
    name = doc["bench"]
    if not name.endswith("_sim"):
        continue
    checked += 1
    if name not in committed:
        print(f"{name}: no committed document of that name", file=sys.stderr)
        failed = True
    elif doc != committed[name]:
        print(f"{name}: differs from the committed document", file=sys.stderr)
        failed = True
    else:
        print(f"{name}: identical")
if checked == 0:
    print("no *_sim documents were written", file=sys.stderr)
    failed = True
sys.exit(1 if failed else 0)
EOF
exit $status
