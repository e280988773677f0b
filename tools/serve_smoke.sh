#!/bin/sh
# Boots a sharpied daemon on a unix socket, runs the same protocol twice
# through the thin client (cold then warm), and asserts that:
#   * both runs exit 0 and print identical output modulo the --json
#     timing line (the warm verdict block is the stored cold one,
#     byte-exact -- the "identical invariant" acceptance gate);
#   * the daemon's cache_stats reports exactly one tier-1 hit;
#   * a local `sharpie --store` cold/warm pair prints what the daemon
#     printed -- both run the one verify sequence;
#   * shutdown via --ctl drains the daemon cleanly (exit 0).
#
# usage: serve_smoke.sh <sharpied> <sharpie> <protocol.sharpie>
set -e

SHARPIED=$1
SHARPIE=$2
PROTO=$3

DIR=$(mktemp -d)
PID=
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

SOCK="$DIR/d.sock"
"$SHARPIED" --listen "unix:$SOCK" --store "$DIR/store" \
  > "$DIR/banner.txt" &
PID=$!

ok=
for _ in $(seq 1 100); do
  if grep -q "listening on" "$DIR/banner.txt" 2>/dev/null; then
    ok=1
    break
  fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "daemon never came up"; exit 1; }

"$SHARPIE" "$PROTO" --server "unix:$SOCK" --json > "$DIR/cold.out"
"$SHARPIE" "$PROTO" --server "unix:$SOCK" --json > "$DIR/warm.out"

# The JSON line carries run-specific timings; everything else must match
# byte for byte (header + stored verdict block).
grep -v '^{' "$DIR/cold.out" > "$DIR/cold.v"
grep -v '^{' "$DIR/warm.out" > "$DIR/warm.v"
cmp "$DIR/cold.v" "$DIR/warm.v"

# The warm run must have been served from tier 1.
grep -q '"cache_lookup_seconds"' "$DIR/warm.out"
"$SHARPIED" --ctl "unix:$SOCK" --op cache_stats > "$DIR/stats.json"
grep -q '"t1_hits":1' "$DIR/stats.json"
grep -q '"t1_writes":1' "$DIR/stats.json"

# Local/daemon parity: a local store's cold and warm runs of the same
# file print the daemon's non-JSON lines (the VERIFIED line's two timings
# masked), its --json keys, and its counts and ctr_* totals.
"$SHARPIE" "$PROTO" --store "$DIR/local" --json > "$DIR/local_cold.out"
"$SHARPIE" "$PROTO" --store "$DIR/local" --json > "$DIR/local_warm.out"
views() {
  grep -v '^{' "$1" |
    sed 's/^VERIFIED in [0-9.]*s (\(.*\); parse [0-9.]*ms)$/VERIFIED (\1)/'
  grep '^{' "$1" | tr ',' '\n' | sed -n 's/^[ {]*"\([^"]*\)":.*/key \1/p' |
    sort
  grep '^{' "$1" | tr ',' '\n' | tr -d ' {}' | sort | grep -E \
    '^"(ctr_.*|tuples_tried|smt_checks|atoms_.*|explicit_states|workers|cache_hits|cache_misses|retries|fallbacks|faults_injected|tuples_skipped|unknown_.*|.*_exceptions)":'
}
for run in cold warm; do
  views "$DIR/$run.out" > "$DIR/daemon.view"
  views "$DIR/local_$run.out" > "$DIR/local.view"
  diff "$DIR/daemon.view" "$DIR/local.view"
done

"$SHARPIED" --ctl "unix:$SOCK" --op shutdown > /dev/null
wait "$PID"
PID=
echo "serve smoke: OK"
