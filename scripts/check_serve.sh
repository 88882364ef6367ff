#!/usr/bin/env bash
# Out-of-process smoke test for `kswsim serve`: a 50-request JSONL batch
# must produce one response per request in order, repeated tuples must
# return bit-identical result bytes with the cache-hit counter advancing,
# bad lines must answer in-band (exit code stays 0), SIGTERM during a
# blocked read must exit 130 promptly with the metrics snapshot flushed,
# and a line over the 1 MiB cap must end the stream with exit 5.
#
#   scripts/check_serve.sh [build-dir]
#
# Assumes the build dir already contains a compiled `kswsim`.
set -euo pipefail

build_dir="${1:-build}"
src_dir="$(cd "$(dirname "$0")/.." && pwd)"
kswsim="$src_dir/$build_dir/apps/kswsim"
[ -x "$kswsim" ] || {
  echo "check_serve: $kswsim not built (run cmake --build $build_dir)" >&2
  exit 1
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== flag validation fails fast"
got=0
"$kswsim" serve --bogus=1 </dev/null >/dev/null 2>&1 || got=$?
[ "$got" -eq 2 ] || {
  echo "check_serve: unknown flag: expected exit 2, got $got" >&2
  exit 1
}

echo "== 50-request batch over stdin"
# 45 valid requests cycling over 5 distinct tuples plus 5 invalid lines.
# --batch=25 splits the stream into two dispatches, so the second half is
# guaranteed to hit the cache regardless of worker count.
for i in $(seq 0 49); do
  case $((i % 10)) in
    7) echo 'this is not json' ;;
    3) echo "{\"kernel\":\"warp_drive\",\"id\":$i}" ;;
    *) echo "{\"kernel\":\"first_stage\",\"id\":$i,\"params\":{\"p\":0.$((i % 5 + 1))}}" ;;
  esac
done > "$work/requests.jsonl"

"$kswsim" serve --batch=25 --metrics-out="$work/metrics.json" \
  < "$work/requests.jsonl" > "$work/responses.jsonl" 2>"$work/serve.log"

lines=$(wc -l < "$work/responses.jsonl")
[ "$lines" -eq 50 ] || {
  echo "check_serve: expected 50 response lines, got $lines" >&2
  exit 1
}
ok=$(grep -c '"ok":true' "$work/responses.jsonl")
bad=$(grep -c '"ok":false' "$work/responses.jsonl")
[ "$ok" -eq 40 ] && [ "$bad" -eq 10 ] || {
  echo "check_serve: expected 40 ok / 10 error responses, got $ok/$bad" >&2
  exit 1
}
grep -q '"kind":"usage"' "$work/responses.jsonl" || {
  echo "check_serve: invalid lines did not answer with error.kind usage" >&2
  exit 1
}

echo "== repeated tuples are bit-identical"
# Requests 0 and 10 share a tuple (p=0.1); their result bytes must match.
r0=$(grep '"id":0,' "$work/responses.jsonl" | sed 's/.*"result"://')
r10=$(grep '"id":10,' "$work/responses.jsonl" | sed 's/.*"result"://')
[ -n "$r0" ] && [ "$r0" = "$r10" ] || {
  echo "check_serve: repeated tuple returned different result bytes" >&2
  echo "  id 0:  $r0" >&2
  echo "  id 10: $r10" >&2
  exit 1
}

echo "== cache hit counter advanced"
hits=$(grep -o '"serve.cache.hits": *[0-9]*' "$work/metrics.json" \
  | grep -o '[0-9]*$')
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
  echo "check_serve: expected serve.cache.hits > 0, got '${hits:-missing}'" >&2
  cat "$work/metrics.json" >&2
  exit 1
}

echo "== SIGTERM during a blocked read exits 130 with metrics flushed"
rm -f "$work/metrics.json"
mkfifo "$work/stdin.fifo"
"$kswsim" serve --metrics-out="$work/metrics.json" \
  < "$work/stdin.fifo" > "$work/term.jsonl" 2>"$work/term.log" &
pid=$!
# Hold the write end open so the server stays blocked in its poll loop.
exec 3> "$work/stdin.fifo"
printf '{"kernel":"later_stages","id":"pre-term"}\n' >&3
sleep 0.5
kill -TERM "$pid"
got=0
wait "$pid" || got=$?
exec 3>&-
[ "$got" -eq 130 ] || {
  echo "check_serve: SIGTERM: expected exit 130, got $got" >&2
  cat "$work/term.log" >&2
  exit 1
}
grep -q '"id":"pre-term"' "$work/term.jsonl" || {
  echo "check_serve: request before SIGTERM was not answered" >&2
  exit 1
}
grep -q "interrupted" "$work/term.log" || {
  echo "check_serve: SIGTERM exit did not report interruption" >&2
  exit 1
}
[ -s "$work/metrics.json" ] || {
  echo "check_serve: metrics snapshot missing after SIGTERM" >&2
  exit 1
}

echo "== hostile input: a newline-free 2 MiB stream exits 5 naming the cap"
cap=1048576
head -c $((2 * cap)) /dev/zero | tr '\0' x > "$work/flood.txt"
got=0
timeout 20 "$kswsim" serve < "$work/flood.txt" > "$work/flood.jsonl" \
  2>"$work/flood.log" || got=$?
[ "$got" -eq 5 ] || {
  echo "check_serve: overlong line: expected exit 5, got $got" >&2
  cat "$work/flood.log" >&2
  exit 1
}
grep -q "$cap-byte cap" "$work/flood.log" || {
  echo "check_serve: overlong-line error does not name the cap" >&2
  cat "$work/flood.log" >&2
  exit 1
}

echo "== a valid line just under the cap is answered"
req='{"kernel":"first_stage","id":"near-cap","params":{"p":0.5}'
pad=$((cap - 64 - ${#req} - 1))
{ printf '%s' "$req"; head -c "$pad" /dev/zero | tr '\0' ' '; echo '}'; } \
  > "$work/near.jsonl"
"$kswsim" serve < "$work/near.jsonl" > "$work/near.out" 2>"$work/near.log"
grep -q '"id":"near-cap","ok":true' "$work/near.out" || {
  echo "check_serve: request just under the cap was not answered ok" >&2
  cat "$work/near.log" >&2
  exit 1
}

echo "check_serve: OK"
