#!/bin/sh
# Part of sharpie. The paper matrix at 1 and 4 workers: runs the five
# figure tables (bench_fig6_upper, bench_fig6_lower, bench_fig7_ganjei,
# bench_fig9_upper, bench_fig9_lower) once per worker count and collects
# every row into one JSONL file.
#
# usage: tools/sweep.sh [OUT]          (default OUT: sweep.jsonl)
#
# BENCH_DIR names the directory holding the bench binaries (default
# build/bench). Each table gets 30 minutes.
#
# Each table reads its worker count from SHARPIE_WORKERS and appends one
# JSON object per row to SHARPIE_BENCH_JSON (bench/BenchSupport.h). The
# row's own "workers" field is the effective count (a single-tuple search
# clamps to 1), so the sweep prefixes every row with the requested count
# as "sweep_workers". The tables' human-readable output goes to stdout.
# Exits 1 if any table fails or times out; a table fails when one of its
# rows' verdicts differs from the paper's.
set -u

OUT=${1:-sweep.jsonl}
BENCH_DIR=${BENCH_DIR:-build/bench}

ROWS=$(mktemp)
trap 'rm -f "$ROWS"' EXIT
: > "$OUT"
status=0
for w in 1 4; do
  for table in fig6_upper fig6_lower fig7_ganjei fig9_upper fig9_lower; do
    echo "== bench_$table at $w worker(s) =="
    : > "$ROWS"
    if ! SHARPIE_WORKERS=$w SHARPIE_BENCH_JSON=$ROWS \
        timeout 1800 "$BENCH_DIR/bench_$table"; then
      echo "error: bench_$table failed or timed out at $w worker(s)" >&2
      status=1
    fi
    sed "s/^{/{\"sweep_workers\":$w,\"table\":\"$table\",/" "$ROWS" >> "$OUT"
  done
done
echo "wrote $(wc -l < "$OUT") rows to $OUT"
exit $status
