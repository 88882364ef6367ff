#!/usr/bin/env bash
# Guard the observability layer's hot-path cost, in both places it can
# hurt:
#
#   sim    perf_simulator with telemetry off vs on (default sampling
#          stride) — enabled-mode cycles/sec must stay >= 90% of baseline.
#   serve  perf_serve with request telemetry (--access-log + span tracer)
#          off vs on — cached-path queries/sec must stay >= 90% of
#          baseline, so the per-request access log and spans never cost
#          more than the 10% budget.
#
#   scripts/check_obs_overhead.sh [build-dir] [pairs] [sim|serve|all]
#
# Off and on run as `pairs` interleaved pairs (default 3), back to back,
# with the order swapped every other pair; the gate reads the median of
# the per-pair on/off ratios. A slow spell on a shared machine then hits
# both halves of a pair instead of one whole block of runs.
set -euo pipefail

build_dir="${1:-build}"
pairs="${2:-3}"
section="${3:-all}"

median_ratio() {
  # median_ratio LABEL PROBE — median over `pairs` of (PROBE on) / (PROBE
  # off); PROBE MODE prints one rate.
  local label="$1" probe="$2" ratios="" off on ratio
  for i in $(seq "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      off=$("$probe" off)
      on=$("$probe" on)
    else
      on=$("$probe" on)
      off=$("$probe" off)
    fi
    if [ -z "$off" ] || [ -z "$on" ]; then
      echo "check_obs_overhead: $label probe printed no rate" >&2
      exit 2
    fi
    ratio=$(awk -v on="$on" -v off="$off" 'BEGIN { printf "%.4f", on / off }')
    echo "$label pair $i: off=$off on=$on ratio=$ratio" >&2
    ratios="$ratios$ratio"$'\n'
  done
  printf '%s' "$ratios" | sort -g | awk '
    { r[NR] = $1 }
    END {
      if (NR % 2) printf "%.4f\n", r[(NR + 1) / 2]
      else printf "%.4f\n", (r[NR / 2] + r[NR / 2 + 1]) / 2
    }'
}

gate_ratio() {
  # gate_ratio LABEL RATIO — fail when the median on/off ratio < 0.90.
  local label="$1" ratio="$2"
  echo "$label overhead check: median on/off ratio over $pairs pairs = $ratio"
  if awk -v r="$ratio" 'BEGIN { exit !(r < 0.90) }'; then
    echo "FAIL: $label telemetry-enabled throughput below 90% of baseline" >&2
    exit 1
  fi
}

if [ "$section" = "sim" ] || [ "$section" = "all" ]; then
  sim_bin="$build_dir/bench/perf_simulator"
  if [ ! -x "$sim_bin" ]; then
    echo "check_obs_overhead: $sim_bin not found (build the bench targets first)" >&2
    exit 2
  fi
  # cycles_per_sec from the first BENCH_perf.json line (the legacy k=2,
  # stages=8 probe). The rho sweep that follows it is not read, so the run
  # is stopped once the line is in; a run that ends without it prints
  # nothing, and the caller exits 2.
  sim_probe() {
    local line pid fd
    local re='^BENCH_perf\.json .*"cycles_per_sec":([0-9.eE+-]+)'
    exec {fd}< <(exec "$sim_bin" "--obs=$1")
    pid=$!
    while IFS= read -r line <&"$fd"; do
      if [[ $line =~ $re ]]; then
        printf '%s\n' "${BASH_REMATCH[1]}"
        break
      fi
    done
    kill "$pid" 2>/dev/null || true
    exec {fd}<&-
  }
  ratio=$(median_ratio sim sim_probe)
  gate_ratio sim "$ratio"
fi

if [ "$section" = "serve" ] || [ "$section" = "all" ]; then
  serve_bin="$build_dir/bench/perf_serve"
  if [ ! -x "$serve_bin" ]; then
    echo "check_obs_overhead: $serve_bin not found (build the bench targets first)" >&2
    exit 2
  fi
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  # qps_cached is the hot path: memoized lookups are where a per-request
  # log row + span could dominate the request's own cost.
  serve_probe() {
    local flags=(--quick --no-gate)
    if [ "$1" = on ]; then flags+=("--access-log=$work/access.jsonl"); fi
    "$serve_bin" "${flags[@]}" |
      sed -n 's/^BENCH_serve\.json .*"qps_cached":\([0-9.eE+-]*\).*/\1/p' |
      head -n 1
  }
  ratio=$(median_ratio serve serve_probe)
  gate_ratio serve "$ratio"
fi

echo "OK: enabled-mode overhead within the 10% budget"
