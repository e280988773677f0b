#!/bin/sh
# Part of sharpie. Lint, both directions: every counter/histogram name the
# library emits must be documented in DESIGN.md's metric name reference
# (section 12), and every name in that reference's counter and histogram
# tables must still be emitted. An undocumented metric is invisible to
# operators reading the docs and silently skews dashboards; a documented
# one that nothing emits anymore sends them looking for data that never
# comes. This makes the doc row part of adding -- and of removing -- a
# metric.
#
#   usage: lint_metrics.sh <repo-root>
#
# Emission sites: TraceBuffer::counter()/sample() calls, the traced
# solver-check helpers (checkTraced / checkAssumingTraced carry the
# phase-histogram name, which the Houdini loop passes through incCheck),
# and resil's bump(), which emits its counter and keeps no tally of its
# own. Names are the quoted [a-z0-9_.] literals on those lines;
# comment-only lines are ignored so prose mentioning a histogram does not
# count as an emission.
#
# Last, one tally per count and one clock per phase: src/synth and
# src/resil must not keep a second tally beside the counters and span
# totals -- no ++/+=/= on a SynthStats count field or derived phase time
# (the *Seconds phases and WorkerUtilization) outside deriveCounts() in
# src/synth/Synth.cpp (which reads each one off its counter or span), and
# no resilience tally sink (the retired sink's type and member names are
# matched below, bracketed so that grepping the tree for them finds only
# real uses).
ROOT=${1:?usage: lint_metrics.sh repo-root}
DESIGN="$ROOT/DESIGN.md"

[ -r "$DESIGN" ] || { echo "missing $DESIGN"; exit 1; }

NAMES=$(grep -rhE '(->counter\(|->sample\(|\bbump\(|checkTraced|checkAssumingTraced|\bincCheck\()' \
          "$ROOT/src" --include='*.cpp' --include='*.h' \
        | grep -vE '^[[:space:]]*//' \
        | grep -ohE '"[a-z][a-z0-9_.]*"' | tr -d '"' | sort -u)

[ -n "$NAMES" ] || { echo "no metric emissions found -- lint is broken"; exit 1; }

MISSING=
for N in $NAMES; do
  grep -qF "\`$N\`" "$DESIGN" || MISSING="$MISSING $N"
done

if [ -n "$MISSING" ]; then
  echo "metric names emitted in src/ but undocumented in DESIGN.md"
  echo "section 12 (add a table row with unit and meaning):"
  for N in $MISSING; do echo "  $N"; done
  exit 1
fi

# The reverse direction: the first cell of every table row under
# "### Metric name reference", up to the next top-level section.
DOCUMENTED=$(awk '/^### Metric name reference/ { on = 1; next }
                  on && /^## / { exit }
                  on && /^\| `[a-z]/ { print }' "$DESIGN" \
             | sed -E 's/^\| `([^`]*)`.*/\1/' | sort -u)

[ -n "$DOCUMENTED" ] || { echo "no metric table rows found -- lint is broken"; exit 1; }

STALE=
for D in $DOCUMENTED; do
  echo "$NAMES" | grep -qxF "$D" || STALE="$STALE $D"
done

if [ -n "$STALE" ]; then
  echo "metric names documented in DESIGN.md section 12 but no longer"
  echo "emitted in src/ (delete the table row):"
  for D in $STALE; do echo "  $D"; done
  exit 1
fi

# The overload runbook (README, DESIGN.md section 13) depends on the
# resilience counters; losing an emission site silently blinds it. Each
# must still be emitted somewhere in src/ (documentation is enforced by
# the generic pass above).
for R in requests_shed drain_cancelled breaker_trips serve_faults_injected; do
  echo "$NAMES" | grep -qx "$R" || {
    echo "required resilience counter '$R' is no longer emitted in src/"
    exit 1
  }
done

COUNTS='TuplesTried|TuplesScreened|SmtChecks|ExplicitStates|CacheHits|CacheMisses|Retries|Fallbacks|FaultsInjected|UnknownTimeouts|UnknownIncomplete|SolverExceptions|TuplesSkipped|WorkerExceptions'
PHASES='ExplicitSeconds|EnumerateSeconds|PrefilterSeconds|ReduceSeconds|HoudiniSeconds|RecheckSeconds|WorkerUtilization'
FIELDS="$COUNTS|$PHASES"
TALLIES=$(find "$ROOT/src/synth" "$ROOT/src/resil" -name '*.cpp' -o -name '*.h' \
          | sort | while read -r F; do
  awk -v F="$F" -v FIELDS="$FIELDS" '
    /^[^[:space:]].*deriveCounts\(/ && !/;$/ { skip = 1 }
    skip { if (/^}/) skip = 0; next }
    /^[[:space:]]*\/\// { next }
    /R[C]nt|Resil[C]ounters/ ||
    $0 ~ ("\\.(" FIELDS ")[[:space:]]*([-+*/]?=[^=]|\\+\\+|--)") ||
    $0 ~ ("(\\+\\+|--)[^;=]*\\.(" FIELDS ")([^A-Za-z0-9_]|$)") {
      print F ":" FNR ": " $0
    }' "$F"
done)

if [ -n "$TALLIES" ]; then
  echo "a SynthStats count or phase time is tallied outside its derivation"
  echo "from the counters and span totals (deriveCounts in"
  echo "src/synth/Synth.cpp); emit a counter or open a span:"
  echo "$TALLIES"
  exit 1
fi
exit 0
