#!/usr/bin/env bash
# prom_scrape.sh -- fetch a sharpied daemon's Prometheus text exposition.
#
# Usage:
#   tools/prom_scrape.sh ADDR [OUT_FILE]
#
# ADDR is the daemon address ("unix:/path/to.sock" or "HOST:PORT").
# Prints the exposition to stdout (or OUT_FILE), exit 0 on success --
# the shape a Prometheus file-based scrape job or a cron textfile
# collector wants. Requires the sharpied binary next to this script's
# build tree or on PATH; the scrape is `sharpied --ctl ADDR --op metrics
# --format prom`.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 ADDR [OUT_FILE]" >&2
  exit 2
fi
ADDR=$1
OUT=${2:-}

# Locate the sharpied binary: PATH first, then the conventional build dir
# relative to this script.
HERE=$(cd "$(dirname "$0")" && pwd)
SHARPIED=$(command -v sharpied || true)
if [ -z "$SHARPIED" ]; then
  for CAND in "$HERE/../build/tools/sharpied" "$HERE/../build/sharpied"; do
    if [ -x "$CAND" ]; then SHARPIED=$CAND; break; fi
  done
fi
if [ -z "$SHARPIED" ]; then
  echo "error: sharpied binary not found (PATH or build/tools)" >&2
  exit 1
fi

if [ -n "$OUT" ]; then
  TMP=$(mktemp "${OUT}.XXXXXX")
  trap 'rm -f "$TMP"' EXIT
  "$SHARPIED" --ctl "$ADDR" --op metrics --format prom >"$TMP"
  mv "$TMP" "$OUT" # Atomic publish: scrapers never see a partial file.
  trap - EXIT
else
  exec "$SHARPIED" --ctl "$ADDR" --op metrics --format prom
fi
