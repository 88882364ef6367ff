#!/usr/bin/env bash
# Simulator throughput regression gate.
#
#   scripts/check_perf.sh [--update] [build-dir]
#
# Runs the perf_simulator throughput probes, appends the fresh
# BENCH_perf.json lines to <build-dir>/BENCH_perf.runs.jsonl (a local
# run history, not committed), and fails when any probe's packets/sec
# drops more than 20% below the checked-in baseline (BENCH_perf.json at
# the repo root), or when the baseline has no entry recorded on this
# machine (cores, CPU, compiler, build type, SIMD level). The comparison
# itself runs inside perf_simulator (--baseline/--gate), so the binary
# prints the same report with or without CI.
#
#   --update   rewrite the repo-root baseline from five runs on this
#              machine, keeping for each probe the run with the median
#              packets/sec (do this deliberately, on the machine the
#              numbers are for; see docs/PERFORMANCE.md "Updating a
#              baseline").
set -euo pipefail

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
build_dir="${1:-build}"
src_dir="$(cd "$(dirname "$0")/.." && pwd)"
bin="$src_dir/$build_dir/bench/perf_simulator"
baseline="$src_dir/BENCH_perf.json"
[ -x "$bin" ] || {
  echo "check_perf: $bin not built (build the bench targets first)" >&2
  exit 2
}

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

if [ "$update" -eq 1 ]; then
  # One tab-separated row per probe line: probe index, packets/sec, line.
  for run in 1 2 3 4 5; do
    (cd "$src_dir" && "$bin" "--baseline=$baseline") |
      sed -n 's/^BENCH_perf\.json //p' |
      awk -v OFS='\t' '{
        match($0, /"packets_per_sec":[0-9.eE+-]+/)
        print NR, substr($0, RSTART + 18, RLENGTH - 18), $0
      }' | tee -a "$out" >&2
  done
  sort -t $'\t' -k1,1n -k2,2g "$out" |
    awk -F '\t' '++n[$1] == 3 { print $3 }' > "$baseline"
  echo "check_perf: wrote $(wc -l < "$baseline" | tr -d ' ') median probe lines to $baseline"
  exit 0
fi

status=0
(cd "$src_dir" && "$bin" "--baseline=$baseline" --gate) \
  | tee "$out" || status=$?
# Keep a local history of every gated run for trend spelunking.
sed -n 's/^BENCH_perf\.json /BENCH_perf.json /p' "$out" \
  >> "$src_dir/$build_dir/BENCH_perf.runs.jsonl"
if [ "$status" -ne 0 ]; then
  echo "check_perf: FAILED (exit $status) — see probe report above" >&2
  exit "$status"
fi
echo "check_perf: OK"
