#!/bin/sh
# Part of sharpie. Two modes:
#
#   tools/sweep.sh             quick health check: runs #Pi on every
#                              registered benchmark with a per-run timeout
#                              and prints one status line each;
#   tools/sweep.sh --bench-pr1 parallel-search benchmark: runs a protocol
#                              selection with NumWorkers in {1, max} and
#                              writes BENCH_PR1.json (one JSON object per
#                              protocol/worker-count run, carrying seconds,
#                              SMT check counts, and cache hit rates);
#   tools/sweep.sh --bench-pr2 frontend benchmark: runs the sharpie driver
#                              on every examples/protocols/*.sharpie file
#                              and writes BENCH_PR2.json (one JSON object
#                              per file, carrying parse+lower and synthesis
#                              wall times);
#   tools/sweep.sh --bench-pr3 observability benchmark: like --bench-pr2
#                              but with metrics collection on (--stats), so
#                              each line also carries the merged tracer
#                              counters (ctr_*: cache hits/misses, CARD
#                              axiom counts, ...) and latency histogram
#                              summaries (hist_*: smt_ms per phase,
#                              reduce_ms); writes BENCH_PR3.json.
#   tools/sweep.sh --bench-pr4 resilience benchmark: runs a protocol
#                              selection three ways -- supervision off
#                              (--no-supervise), supervision on with no
#                              faults, and under a seeded fault plan --
#                              and writes BENCH_PR4.json. Each line
#                              carries the resilience counters
#                              (ctr_retries, ctr_fallbacks,
#                              ctr_faults_injected, ctr_tuples_skipped);
#                              comparing the first two modes' seconds
#                              bounds the supervision overhead (<2%
#                              expected when no faults fire).
#   tools/sweep.sh --bench-pr7 serving-stack benchmark: boots a sharpied
#                              daemon on a fresh store, runs each protocol
#                              twice through the thin client (cold, then
#                              warm) and writes BENCH_PR7.json. Each line
#                              carries both client wall times and the
#                              daemon-side total_seconds; the script diffs
#                              the timing-free output across the two runs
#                              (any difference fails the bench) and
#                              asserts the warm request is at least
#                              MIN_SPEEDUP (default 10) times faster than
#                              the cold one whenever the cold request took
#                              a measurable MIN_COLD seconds. The final
#                              meta line records the daemon's cache_stats
#                              counters (t1 hits/writes per protocol).
#   tools/sweep.sh --bench-pr8 telemetry-overhead benchmark: boots two
#                              sharpied daemons on fresh stores -- one
#                              with telemetry (default) and one with
#                              --no-telemetry -- runs PR8_PROTO cold and
#                              warm through each, and writes
#                              BENCH_PR8.json. Gates: the telemetry
#                              daemon's cold wall must stay within
#                              OVERHEAD_MAX percent (default 2, plus an
#                              ABS_SLACK noise floor) of the baseline;
#                              the metrics endpoint must expose the
#                              cold/warm requests in labeled counters;
#                              the flight recorder's measured bytes must
#                              sit under its configured ceiling. Also
#                              records the average Prometheus scrape
#                              latency and a dump_trace sanity probe.
#   tools/sweep.sh --bench-pr9 overload-discipline benchmark: boots a
#                              sharpied daemon with a small admission
#                              window (--request-workers 2
#                              --queue-depth 4) and fires 4x its
#                              capacity in concurrent slow verifies.
#                              Writes BENCH_PR9.json: shed-response
#                              client walls (the shed decision is
#                              connection-thread-only, so these stay
#                              near process-start cost), completed-
#                              request walls, storm wall, the mid-storm
#                              health probe, and the daemon's final
#                              shed counters. Gates: every client exits
#                              (zero hung), completed <= capacity,
#                              shed >= clients - capacity, and health
#                              answers ok mid-storm.
#
# BIN points at the example_run_protocol binary, SHARPIE_BIN at the
# sharpie driver, TIMEOUT is per run.
BIN=${BIN:-build/examples/example_run_protocol}
SHARPIE_BIN=${SHARPIE_BIN:-build/tools/sharpie}
TIMEOUT=${TIMEOUT:-120}

if [ "$1" = "--bench-pr2" ] || [ "$1" = "--bench-pr3" ]; then
  if [ "$1" = "--bench-pr3" ]; then
    OUT=${OUT:-BENCH_PR3.json}
    STATS=--stats # Turns metrics collection on: ctr_*/hist_* JSON fields.
  else
    OUT=${OUT:-BENCH_PR2.json}
    STATS=
  fi
  PROTODIR=${PROTODIR:-examples/protocols}
  printf '{"meta":{"nproc":%s,"protodir":"%s"}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$PROTODIR" > "$OUT"
  for f in "$PROTODIR"/*.sharpie; do
    line=$(timeout "$TIMEOUT" "$SHARPIE_BIN" "$f" --json $STATS 2>/dev/null \
           | grep '^{' | head -1)
    if [ -n "$line" ]; then
      printf '%s\n' "$line" >> "$OUT"
    else
      printf '{"file":"%s","error":"timeout"}\n' "$f" >> "$OUT"
    fi
    printf '%-44s %s\n' "$f" "${line:-TIMEOUT}"
  done
  echo "wrote $OUT"
  exit 0
fi

if [ "$1" = "--bench-pr4" ]; then
  OUT=${OUT:-BENCH_PR4.json}
  # A spread of search shapes: the two-tuple quick case, the single-tuple
  # control, and a Venn-heavy multi-tuple search where checks dominate.
  PROTOS=${PROTOS:-"increment ticket-mutex one-third"}
  # Injected-fault demonstration runs. Every ~5th SMT check answers
  # Unknown and escalates to the MiniSolver fallback; the plan runs on
  # small protocols whose fallback queries resolve in milliseconds -- on
  # check-heavy protocols each escalation can grind a full per-check
  # slice, which measures the fault plan, not the wrapper.
  FAULTS=${FAULTS:-"seed=1;smt_check:unknown@every=5"}
  FAULT_PROTOS=${FAULT_PROTOS:-"increment"}
  # Wall-clock deltas on a loaded host swamp a <2% effect; take the best
  # of REPS runs per mode so the overhead comparison sees the noise floor.
  REPS=${REPS:-3}
  printf '{"meta":{"nproc":%s,"faults":"%s","reps":%s}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$FAULTS" "$REPS" > "$OUT"
  run_mode() { # $1=protocol $2=mode $3=reps $4...=extra flags
    rm_name=$1; rm_mode=$2; rm_reps=$3; shift 3
    best=
    bestsecs=
    r=0
    while [ $r -lt "$rm_reps" ]; do
      r=$((r + 1))
      line=$(timeout "$TIMEOUT" "$BIN" "$rm_name" --stats --json "$@" \
             2>/dev/null | grep '^{' | head -1)
      secs=$(printf '%s' "$line" \
             | sed -n 's/.*"synth_seconds":\([0-9.]*\).*/\1/p')
      if [ -n "$secs" ] && { [ -z "$bestsecs" ] || \
           awk -v a="$secs" -v b="$bestsecs" 'BEGIN{exit !(a<b)}'; }; then
        best=$line
        bestsecs=$secs
      fi
    done
    if [ -n "$best" ]; then
      printf '{"mode":"%s",%s\n' "$rm_mode" "${best#?}" >> "$OUT"
    else
      printf '{"mode":"%s","protocol":"%s","error":"timeout"}\n' \
        "$rm_mode" "$rm_name" >> "$OUT"
    fi
    resil=$(printf '%s' "$best" | grep -oE \
      '"ctr_(retries|fallbacks|faults_injected|tuples_skipped)": [0-9]+' \
      | tr '\n' ' ')
    printf '%-14s %-10s %8ss  %s\n' "$rm_name" "$rm_mode" "${bestsecs:-?}" \
      "$resil"
  }
  for name in $PROTOS; do
    run_mode "$name" bare "$REPS" --no-supervise
    bare=$bestsecs
    run_mode "$name" supervised "$REPS"
    sup=$bestsecs
    if [ -n "$bare" ] && [ -n "$sup" ]; then
      awk -v b="$bare" -v s="$sup" -v n="$name" 'BEGIN {
        printf "%-14s supervision overhead: %+.2f%%\n", n, (s-b)/b*100 }'
    fi
  done
  for name in $FAULT_PROTOS; do
    run_mode "$name" faulted 1 --faults "$FAULTS"
  done
  echo "wrote $OUT"
  exit 0
fi

if [ "$1" = "--bench-pr7" ]; then
  OUT=${OUT:-BENCH_PR7.json}
  SHARPIED_BIN=${SHARPIED_BIN:-build/tools/sharpied}
  PROTODIR=${PROTODIR:-examples/protocols}
  # The quick protocol plus a search-heavy one: increment pins the fixed
  # per-request floor, ticket_lock shows the cache absorbing real work.
  PR7_PROTOS=${PR7_PROTOS:-"increment.sharpie ticket_lock.sharpie"}
  MIN_SPEEDUP=${MIN_SPEEDUP:-10}
  # Below this cold client wall the request is all fixed overhead (process
  # start, parse, framing -- identical cold and warm), so the speedup gate
  # would measure noise, not the cache.
  MIN_COLD=${MIN_COLD:-0.5}
  FAIL=0
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
  SOCK="$WORK/sharpied.sock"
  "$SHARPIED_BIN" --listen "unix:$SOCK" --store "$WORK/store" \
    > "$WORK/daemon.log" 2>&1 &
  DPID=$!
  i=0
  while [ $i -lt 100 ]; do
    grep -q "listening on" "$WORK/daemon.log" 2>/dev/null && break
    kill -0 "$DPID" 2>/dev/null || { echo "daemon died:"; cat "$WORK/daemon.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
  done
  printf '{"meta":{"nproc":%s,"min_speedup":%s,"min_cold":%s}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$MIN_SPEEDUP" "$MIN_COLD" > "$OUT"
  pr7_wall() { # $1=outfile $2=protocol file; prints client wall seconds
    w0=$(date +%s%N)
    timeout "$TIMEOUT" "$SHARPIE_BIN" --server "unix:$SOCK" "$2" --json \
      > "$1" 2>/dev/null
    w1=$(date +%s%N)
    awk -v a="$w0" -v b="$w1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
  }
  for f in $PR7_PROTOS; do
    file="$PROTODIR/$f"
    name=$(basename "$f" .sharpie)
    cold_wall=$(pr7_wall "$WORK/cold.out" "$file")
    warm_wall=$(pr7_wall "$WORK/warm.out" "$file")
    cold_srv=$(grep '^{' "$WORK/cold.out" | head -1 \
               | sed -n 's/.*"total_seconds":\([0-9.]*\).*/\1/p')
    warm_srv=$(grep '^{' "$WORK/warm.out" | head -1 \
               | sed -n 's/.*"total_seconds":\([0-9.]*\).*/\1/p')
    if [ -z "$cold_srv" ] || [ -z "$warm_srv" ]; then
      printf '{"protocol":"%s","error":"no result"}\n' "$name" >> "$OUT"
      printf '%-14s FAIL: no result (timeout or daemon error)\n' "$name"
      FAIL=1
      continue
    fi
    # Parity gate: everything but the timing-bearing JSON line must be
    # byte-identical -- the warm run replays the stored verdict.
    parity=ok
    grep -v '^{' "$WORK/cold.out" > "$WORK/cold.inv"
    grep -v '^{' "$WORK/warm.out" > "$WORK/warm.inv"
    if ! cmp -s "$WORK/cold.inv" "$WORK/warm.inv"; then
      parity=differs
      printf '%-14s PARITY FAIL: warm output differs from cold\n' "$name"
      FAIL=1
    fi
    # Speedup over end-to-end client wall: the daemon-side warm time
    # underflows the wire format's millisecond resolution, the wall
    # includes it plus the (cache-independent) client overhead.
    speedup=$(awk -v c="$cold_wall" -v w="$warm_wall" \
      'BEGIN { printf "%.1f", (w > 0) ? c / w : 0 }')
    printf '{"protocol":"%s","cold_wall":%s,"warm_wall":%s,"cold_server_seconds":%s,"warm_server_seconds":%s,"speedup":%s,"parity":"%s"}\n' \
      "$name" "$cold_wall" "$warm_wall" "$cold_srv" "$warm_srv" \
      "$speedup" "$parity" >> "$OUT"
    printf '%-14s cold=%ss warm=%ss (server: %ss -> %ss, %sx)\n' \
      "$name" "$cold_wall" "$warm_wall" "$cold_srv" "$warm_srv" "$speedup"
    if awk -v c="$cold_wall" -v m="$MIN_COLD" 'BEGIN { exit !(c >= m) }' &&
       awk -v s="$speedup" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
      printf '%-14s SPEEDUP FAIL: %sx < %sx\n' "$name" "$speedup" "$MIN_SPEEDUP"
      FAIL=1
    fi
  done
  stats=$("$SHARPIED_BIN" --ctl "unix:$SOCK" --op cache_stats 2>/dev/null)
  printf '{"cache_stats":%s}\n' "${stats:-null}" >> "$OUT"
  echo "cache_stats: $stats"
  "$SHARPIED_BIN" --ctl "unix:$SOCK" --op shutdown > /dev/null 2>&1
  wait "$DPID" 2>/dev/null
  echo "wrote $OUT"
  exit $FAIL
fi

if [ "$1" = "--bench-pr8" ]; then
  OUT=${OUT:-BENCH_PR8.json}
  SHARPIED_BIN=${SHARPIED_BIN:-build/tools/sharpied}
  PROTODIR=${PROTODIR:-examples/protocols}
  # A search-heavy protocol: fixed request overhead is negligible against
  # the solve, so the A/B isolates the aggregation cost.
  PR8_PROTO=${PR8_PROTO:-ticket_lock.sharpie}
  OVERHEAD_MAX=${OVERHEAD_MAX:-2}   # percent of the baseline cold wall
  ABS_SLACK=${ABS_SLACK:-0.15}      # seconds; scheduler noise floor
  SCRAPES=${SCRAPES:-20}
  FAIL=0
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT

  pr8_boot() { # $1=sock $2=store $3=log $4=extra flags; sets BOOT_PID
    # shellcheck disable=SC2086
    "$SHARPIED_BIN" --listen "unix:$1" --store "$2" $4 > "$3" 2>&1 &
    BOOT_PID=$!
    i=0
    while [ $i -lt 100 ]; do
      grep -q "listening on" "$3" 2>/dev/null && break
      kill -0 "$BOOT_PID" 2>/dev/null || \
        { echo "daemon died:"; cat "$3"; exit 1; }
      sleep 0.1
      i=$((i + 1))
    done
  }
  pr8_wall() { # $1=sock $2=protocol file; prints client wall seconds
    w0=$(date +%s%N)
    timeout "$TIMEOUT" "$SHARPIE_BIN" --server "unix:$1" "$2" \
      > /dev/null 2>&1 || true
    w1=$(date +%s%N)
    awk -v a="$w0" -v b="$w1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
  }

  file="$PROTODIR/$PR8_PROTO"
  name=$(basename "$PR8_PROTO" .sharpie)
  printf '{"meta":{"nproc":%s,"protocol":"%s","overhead_max_pct":%s,"abs_slack_s":%s}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$name" "$OVERHEAD_MAX" "$ABS_SLACK" > "$OUT"

  # Baseline: telemetry stripped entirely.
  SOCK_B="$WORK/base.sock"
  pr8_boot "$SOCK_B" "$WORK/store_base" "$WORK/base.log" "--no-telemetry"
  PID_B=$BOOT_PID
  base_cold=$(pr8_wall "$SOCK_B" "$file")
  base_warm=$(pr8_wall "$SOCK_B" "$file")
  "$SHARPIED_BIN" --ctl "unix:$SOCK_B" --op shutdown > /dev/null 2>&1
  wait "$PID_B" 2>/dev/null

  # Telemetry on (defaults: registry + flight recorder + event capture).
  SOCK_T="$WORK/tele.sock"
  pr8_boot "$SOCK_T" "$WORK/store_tele" "$WORK/tele.log" ""
  PID_T=$BOOT_PID
  tele_cold=$(pr8_wall "$SOCK_T" "$file")
  tele_warm=$(pr8_wall "$SOCK_T" "$file")

  # Metrics endpoint: the cold solve and the tier-1 replay must be
  # visible in the labeled Prometheus counters.
  "$SHARPIE_BIN" --server "unix:$SOCK_T" metrics --format prom \
    > "$WORK/prom.txt" 2>/dev/null
  for want in \
    'sharpie_requests_total{outcome="verified",cache_tier="cold"} 1' \
    'sharpie_requests_total{outcome="verified",cache_tier="t1_hit"} 1' \
    '# TYPE sharpie_requests_total counter'; do
    if ! grep -qF "$want" "$WORK/prom.txt"; then
      printf 'METRICS FAIL: missing %s\n' "$want"
      FAIL=1
    fi
  done

  # Scrape latency: average over SCRAPES Prometheus pulls.
  s0=$(date +%s%N)
  i=0
  while [ $i -lt "$SCRAPES" ]; do
    "$SHARPIE_BIN" --server "unix:$SOCK_T" metrics --format prom > /dev/null 2>&1
    i=$((i + 1))
  done
  s1=$(date +%s%N)
  scrape_ms=$(awk -v a="$s0" -v b="$s1" -v n="$SCRAPES" \
    'BEGIN { printf "%.2f", (b - a) / 1e6 / n }')

  # Flight recorder: measured footprint under its configured ceiling,
  # and dump_trace yields a trace document for the past requests.
  gauges=$("$SHARPIE_BIN" --server "unix:$SOCK_T" metrics 2>/dev/null)
  fb=$(printf '%s' "$gauges" | sed -n 's/.*"flight_bytes":\([0-9.e+]*\).*/\1/p')
  fc=$(printf '%s' "$gauges" | sed -n 's/.*"flight_bytes_ceiling":\([0-9.e+]*\).*/\1/p')
  if [ -z "$fb" ] || [ -z "$fc" ] || \
     ! awk -v b="$fb" -v c="$fc" 'BEGIN { exit !(b <= c && c > 0) }'; then
    printf 'FLIGHT FAIL: bytes=%s ceiling=%s\n' "${fb:-?}" "${fc:-?}"
    FAIL=1
  fi
  if ! "$SHARPIED_BIN" --ctl "unix:$SOCK_T" --op dump_trace 2>/dev/null \
       | grep -q '"traceEvents"'; then
    echo "DUMP_TRACE FAIL: no trace document"
    FAIL=1
  fi
  "$SHARPIED_BIN" --ctl "unix:$SOCK_T" --op shutdown > /dev/null 2>&1
  wait "$PID_T" 2>/dev/null

  # Overhead gate: telemetry cold wall within OVERHEAD_MAX percent of the
  # baseline, with ABS_SLACK absorbing scheduler noise on fast solves.
  overhead_pct=$(awk -v t="$tele_cold" -v b="$base_cold" \
    'BEGIN { printf "%.2f", (b > 0) ? (t - b) * 100 / b : 0 }')
  if ! awk -v t="$tele_cold" -v b="$base_cold" -v m="$OVERHEAD_MAX" \
         -v s="$ABS_SLACK" \
         'BEGIN { exit !((t - b) <= b * m / 100 || (t - b) <= s) }'; then
    printf 'OVERHEAD FAIL: telemetry cold %ss vs baseline %ss (%s%%)\n' \
      "$tele_cold" "$base_cold" "$overhead_pct"
    FAIL=1
  fi

  printf '{"protocol":"%s","baseline_cold_wall":%s,"baseline_warm_wall":%s,"telemetry_cold_wall":%s,"telemetry_warm_wall":%s,"overhead_pct":%s,"scrape_ms":%s,"flight_bytes":%s,"flight_bytes_ceiling":%s}\n' \
    "$name" "$base_cold" "$base_warm" "$tele_cold" "$tele_warm" \
    "$overhead_pct" "$scrape_ms" "${fb:-0}" "${fc:-0}" >> "$OUT"
  printf '%-14s base cold=%ss warm=%ss | telemetry cold=%ss warm=%ss (%s%% overhead)\n' \
    "$name" "$base_cold" "$base_warm" "$tele_cold" "$tele_warm" "$overhead_pct"
  printf '%-14s scrape=%sms flight=%s/%s bytes\n' "$name" "$scrape_ms" \
    "${fb:-0}" "${fc:-0}"
  echo "wrote $OUT"
  exit $FAIL
fi

if [ "$1" = "--bench-pr9" ]; then
  OUT=${OUT:-BENCH_PR9.json}
  SHARPIED_BIN=${SHARPIED_BIN:-build/tools/sharpied}
  PROTODIR=${PROTODIR:-examples/protocols}
  PR9_PROTO=${PR9_PROTO:-increment.sharpie}
  WORKERS=${WORKERS:-2}
  QUEUE_DEPTH=${QUEUE_DEPTH:-4}
  CAPACITY=$((WORKERS + QUEUE_DEPTH))
  CLIENTS=${CLIENTS:-$((CAPACITY * 4))}
  # Per-tuple latency keeping each admitted solve slow enough that the
  # storm actually saturates the queue (a faulted request also bypasses
  # the cache, so identical texts cannot collapse into warm hits).
  HOLD_MS=${HOLD_MS:-2000}
  FAIL=0
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT

  SOCK="$WORK/sharpied.sock"
  "$SHARPIED_BIN" --listen "unix:$SOCK" --store "$WORK/store" \
    --request-workers "$WORKERS" --queue-depth "$QUEUE_DEPTH" \
    > "$WORK/daemon.log" 2>&1 &
  DPID=$!
  i=0
  while [ $i -lt 100 ]; do
    grep -q "listening on" "$WORK/daemon.log" 2>/dev/null && break
    kill -0 "$DPID" 2>/dev/null || \
      { echo "daemon died:"; cat "$WORK/daemon.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
  done

  file="$PROTODIR/$PR9_PROTO"
  printf '{"meta":{"nproc":%s,"protocol":"%s","request_workers":%s,"queue_depth":%s,"capacity":%s,"clients":%s,"hold_ms":%s}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$(basename "$PR9_PROTO" .sharpie)" \
    "$WORKERS" "$QUEUE_DEPTH" "$CAPACITY" "$CLIENTS" "$HOLD_MS" > "$OUT"

  # The storm: CLIENTS concurrent verifies, each with retries off so a
  # shed comes straight back as exit 5. Every client records its exit
  # code and wall; `timeout` turns a hung client into exit 124.
  storm0=$(date +%s%N)
  CPIDS=
  i=0
  while [ $i -lt "$CLIENTS" ]; do
    i=$((i + 1))
    (
      c0=$(date +%s%N)
      timeout "$TIMEOUT" "$SHARPIE_BIN" --server "unix:$SOCK" "$file" \
        --faults "worker_task:latency=${HOLD_MS}@always" \
        --retries 0 > /dev/null 2>&1
      code=$?
      c1=$(date +%s%N)
      awk -v a="$c0" -v b="$c1" -v c="$code" \
        'BEGIN { printf "%d %.3f\n", c, (b - a) / 1e9 }' \
        > "$WORK/client.$i"
    ) &
    CPIDS="$CPIDS $!"
  done

  # Mid-storm: introspection must answer while every worker is busy.
  sleep 1
  "$SHARPIED_BIN" --ctl "unix:$SOCK" --op health > "$WORK/health.json" 2>&1
  health=fail
  grep -q '"ok":true' "$WORK/health.json" && health=ok
  [ "$health" = ok ] || { echo "HEALTH FAIL: no answer mid-storm"; FAIL=1; }

  # Wait on the clients only -- a bare `wait` would also wait on the
  # daemon, which does not exit until the shutdown op below.
  for p in $CPIDS; do
    wait "$p" 2>/dev/null
  done
  storm1=$(date +%s%N)
  storm_wall=$(awk -v a="$storm0" -v b="$storm1" \
    'BEGIN { printf "%.3f", (b - a) / 1e9 }')

  # Classify the client outcomes.
  cat "$WORK"/client.* > "$WORK/clients.txt"
  summary=$(awk '
    { code = $1; wall = $2 }
    code == 0   { ok++;   okw[ok] = wall }
    code == 5   { shed++; sw[shed] = wall }
    code == 124 { hung++ }
    code != 0 && code != 5 && code != 124 { other++ }
    END {
      omin = omax = (ok ? okw[1] : 0)
      for (i = 1; i <= ok; i++) { if (okw[i] < omin) omin = okw[i]
                                  if (okw[i] > omax) omax = okw[i] }
      smin = smax = (shed ? sw[1] : 0); ssum = 0
      for (i = 1; i <= shed; i++) { if (sw[i] < smin) smin = sw[i]
                                    if (sw[i] > smax) smax = sw[i]
                                    ssum += sw[i] }
      printf "%d %d %d %d %.3f %.3f %.3f %.3f %.3f",
        ok+0, shed+0, hung+0, other+0, omin, omax, smin, smax,
        (shed ? ssum / shed : 0)
    }' "$WORK/clients.txt")
  ok=$(echo "$summary" | cut -d' ' -f1)
  shed=$(echo "$summary" | cut -d' ' -f2)
  hung=$(echo "$summary" | cut -d' ' -f3)
  other=$(echo "$summary" | cut -d' ' -f4)
  ok_min=$(echo "$summary" | cut -d' ' -f5)
  ok_max=$(echo "$summary" | cut -d' ' -f6)
  shed_min=$(echo "$summary" | cut -d' ' -f7)
  shed_max=$(echo "$summary" | cut -d' ' -f8)
  shed_mean=$(echo "$summary" | cut -d' ' -f9)

  # Gates: nothing hangs, nothing errors, the books balance, admission
  # held the line, and the surplus was shed.
  [ "$hung" -eq 0 ] || { echo "HUNG FAIL: $hung clients never returned"; FAIL=1; }
  [ "$other" -eq 0 ] || { echo "EXIT FAIL: $other clients exited oddly"; FAIL=1; }
  [ $((ok + shed + hung + other)) -eq "$CLIENTS" ] || \
    { echo "COUNT FAIL: $ok+$shed+$hung+$other != $CLIENTS"; FAIL=1; }
  [ "$ok" -le "$CAPACITY" ] || \
    { echo "ADMISSION FAIL: $ok completed > capacity $CAPACITY"; FAIL=1; }
  [ "$shed" -ge $((CLIENTS - CAPACITY)) ] || \
    { echo "SHED FAIL: only $shed shed of >= $((CLIENTS - CAPACITY))"; FAIL=1; }

  status=$("$SHARPIED_BIN" --ctl "unix:$SOCK" --op status 2>/dev/null)
  printf '{"storm_wall":%s,"completed":{"count":%s,"wall_min":%s,"wall_max":%s},"shed":{"count":%s,"wall_min":%s,"wall_mean":%s,"wall_max":%s},"hung":%s,"health_mid_storm":"%s"}\n' \
    "$storm_wall" "$ok" "$ok_min" "$ok_max" "$shed" "$shed_min" \
    "$shed_mean" "$shed_max" "$hung" "$health" >> "$OUT"
  printf '{"status":%s}\n' "${status:-null}" >> "$OUT"
  printf 'storm: %s clients -> %s completed, %s shed, %s hung in %ss\n' \
    "$CLIENTS" "$ok" "$shed" "$hung" "$storm_wall"
  printf 'shed wall: min=%ss mean=%ss max=%ss | completed wall: %ss..%ss\n' \
    "$shed_min" "$shed_mean" "$shed_max" "$ok_min" "$ok_max"
  printf 'health mid-storm: %s\n' "$health"

  "$SHARPIED_BIN" --ctl "unix:$SOCK" --op shutdown > /dev/null 2>&1
  wait "$DPID" 2>/dev/null
  echo "wrote $OUT"
  exit $FAIL
fi

if [ "$1" = "--bench-pr1" ]; then
  OUT=${OUT:-BENCH_PR1.json}
  # Multi-tuple protocols where the set-tuple search dominates, plus the
  # single-tuple ticket-mutex as a no-parallelism-available control.
  PROTOS=${PROTOS:-"ticket one-third filter ticket-mutex"}
  MAXW=${MAXW:-$(nproc 2>/dev/null || echo 4)}
  # First line records the host so speedup numbers are interpretable: on a
  # single-core machine workers interleave and "max" degenerates to 1.
  printf '{"meta":{"nproc":%s,"max_workers":%s}}\n' \
    "$(nproc 2>/dev/null || echo 0)" "$MAXW" > "$OUT"
  for name in $PROTOS; do
    for w in 1 "$MAXW"; do
      line=$(timeout "$TIMEOUT" "$BIN" "$name" --workers "$w" --json \
             | grep '^{' | head -1)
      if [ -n "$line" ]; then
        printf '%s\n' "$line" >> "$OUT"
      else
        printf '{"protocol":"%s","workers":%s,"error":"timeout"}\n' \
          "$name" "$w" >> "$OUT"
      fi
      printf '%-14s workers=%-3s %s\n' "$name" "$w" "${line:-TIMEOUT}"
    done
  done
  echo "wrote $OUT"
  exit 0
fi

for name in $($BIN --list); do
  start=$(date +%s%N)
  out=$(timeout "$TIMEOUT" "$BIN" "$name" 2>&1)
  code=$?
  end=$(date +%s%N)
  ms=$(( (end - start) / 1000000 ))
  status=$(printf '%s' "$out" | grep -oE 'VERIFIED|UNSAFE|NOT VERIFIED' | head -1)
  [ $code -eq 124 ] && status=TIMEOUT
  printf '%-22s %-14s %6dms\n' "$name" "${status:-ERROR}" "$ms"
done
