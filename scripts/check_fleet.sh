#!/usr/bin/env bash
# Out-of-process smoke test for `kswsim fleet`: the supervisor must come
# up with its workers, serve multiple concurrent TCP clients in per-
# connection request order, advance the cache on repeated tuples (same
# canonical key -> same worker -> same shard cache), reject unknown flags
# (including the removed --socket-dir) with exit 2, and drain cleanly to
# exit 130 on SIGTERM, leaving nothing behind in its TMPDIR.
#
#   scripts/check_fleet.sh [build-dir]
#
# Assumes the build dir already contains a compiled `kswsim`.
set -euo pipefail

build_dir="${1:-build}"
src_dir="$(cd "$(dirname "$0")/.." && pwd)"
kswsim="$src_dir/$build_dir/apps/kswsim"
[ -x "$kswsim" ] || {
  echo "check_fleet: $kswsim not built (run cmake --build $build_dir)" >&2
  exit 1
}

work="$(mktemp -d)"
fleet_pid=""
cleanup() {
  [ -n "$fleet_pid" ] && kill -KILL "$fleet_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== flag validation fails fast"
got=0
"$kswsim" fleet --bogus=1 >/dev/null 2>&1 || got=$?
[ "$got" -eq 2 ] || {
  echo "check_fleet: unknown flag: expected exit 2, got $got" >&2
  exit 1
}
got=0
"$kswsim" fleet --tcp=not-a-port >/dev/null 2>&1 || got=$?
[ "$got" -eq 2 ] || {
  echo "check_fleet: bad --tcp: expected exit 2, got $got" >&2
  exit 1
}
got=0
"$kswsim" fleet --socket-dir=x >/dev/null 2>&1 || got=$?
[ "$got" -eq 2 ] || {
  echo "check_fleet: --socket-dir is gone: expected exit 2, got $got" >&2
  exit 1
}

echo "== fleet starts with 2 workers on an ephemeral port"
mkdir "$work/tmp"
TMPDIR="$work/tmp" "$kswsim" fleet --workers=2 --tcp=127.0.0.1:0 \
  --metrics-out="$work/metrics.json" 2>"$work/fleet.log" &
fleet_pid=$!

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^fleet: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$work/fleet.log" | head -n 1)
  [ -n "$port" ] && break
  kill -0 "$fleet_pid" 2>/dev/null || {
    echo "check_fleet: fleet exited during startup" >&2
    cat "$work/fleet.log" >&2
    exit 1
  }
  sleep 0.1
done
[ -n "$port" ] || {
  echo "check_fleet: fleet never announced its port" >&2
  cat "$work/fleet.log" >&2
  exit 1
}
workers=$(grep -c '^fleet: worker [0-9]* pid ' "$work/fleet.log")
[ "$workers" -eq 2 ] || {
  echo "check_fleet: expected 2 worker banner lines, got $workers" >&2
  exit 1
}

echo "== two concurrent TCP clients, 20 requests each, in order"
client() {
  local tag="$1"
  local out="$2"
  exec 9<>"/dev/tcp/127.0.0.1/$port"
  for i in $(seq 0 19); do
    # Repeat 5 tuples per client so most requests are cache hits.
    printf '{"kernel":"first_stage","id":"%s-%d","params":{"p":0.%d}}\n' \
      "$tag" "$i" $((i % 5 + 1)) >&9
  done
  head -n 20 <&9 > "$out"
  exec 9<&- 9>&-
}
client a "$work/a.jsonl" &
a_pid=$!
client b "$work/b.jsonl" &
b_pid=$!
wait "$a_pid" "$b_pid"

for tag in a b; do
  lines=$(wc -l < "$work/$tag.jsonl")
  [ "$lines" -eq 20 ] || {
    echo "check_fleet: client $tag got $lines of 20 responses" >&2
    exit 1
  }
  for i in $(seq 0 19); do
    sed -n "$((i + 1))p" "$work/$tag.jsonl" | grep -q "\"id\":\"$tag-$i\"" || {
      echo "check_fleet: client $tag response $i out of order" >&2
      exit 1
    }
  done
  ok=$(grep -c '"ok":true' "$work/$tag.jsonl")
  [ "$ok" -eq 20 ] || {
    echo "check_fleet: client $tag expected 20 ok responses, got $ok" >&2
    exit 1
  }
done

echo "== repeated tuples are served from the shard cache"
hits=$(grep -c '"cached":true' "$work/a.jsonl" "$work/b.jsonl" | \
  awk -F: '{s+=$2} END {print s}')
[ "$hits" -gt 0 ] || {
  echo "check_fleet: no cached responses across 40 repeated-tuple requests" >&2
  exit 1
}

echo "== SIGTERM drains cleanly to exit 130 with metrics flushed"
kill -TERM "$fleet_pid"
got=0
wait "$fleet_pid" || got=$?
fleet_pid=""
[ "$got" -eq 130 ] || {
  echo "check_fleet: SIGTERM: expected exit 130, got $got" >&2
  cat "$work/fleet.log" >&2
  exit 1
}
grep -q "fleet: all workers stopped" "$work/fleet.log" || {
  echo "check_fleet: workers were not reaped on shutdown" >&2
  cat "$work/fleet.log" >&2
  exit 1
}
[ -s "$work/metrics.json" ] || {
  echo "check_fleet: metrics snapshot missing after SIGTERM" >&2
  exit 1
}
grep -q '"fleet.requests"' "$work/metrics.json" || {
  echo "check_fleet: metrics snapshot is missing fleet counters" >&2
  cat "$work/metrics.json" >&2
  exit 1
}
remaining=$(find "$work/tmp" -mindepth 1 | wc -l)
[ "$remaining" -eq 0 ] || {
  echo "check_fleet: $remaining entries left behind in the fleet's TMPDIR" >&2
  find "$work/tmp" -mindepth 1 >&2
  exit 1
}

echo "check_fleet: OK"
