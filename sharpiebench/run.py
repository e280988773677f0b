#!/usr/bin/env python3
"""The sharpie benchmark: time to verdict on four workloads, split by layer.

Run from the repository root:

    python3 sharpiebench/run.py --workload many_tuples_w1 --seed 1 \
        --seconds 10 --trace 0

builds the in-process harness (sharpiebench/harness.cpp, against the
repository's src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload of sharpiebench/inputs.json, checks every verdict and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones and a Perfetto
trace. Other modes:

    --selftest       the exact-count test: two short traced runs of every
                     1-worker workload must agree on the counts in
                     EXACT_COUNTS; names any count that drifts
    --write-golden   re-records the golden outputs and hashes in inputs.json
    --baseline N     N seeds per workload plus one traced run each, written
                     to sharpiebench/baseline.json with the host description

See sharpiebench/README.md for the metric definitions.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "inputs.json")
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
HARNESS = os.path.join(BUILD_DIR, "sharpiebench_harness")
# Only a backstop for a hung harness: the harness clips every verify's budget
# so that it ends 150 s after start, and reports a verify that runs out of
# budget as a failed attempt.
HARNESS_TIMEOUT_S = 170

# Counts that host noise cannot move: at 1 worker they must repeat exactly.
EXACT_COUNTS = [
    "synth.tuples_tried", "smt.checks", "engine.reductions",
    "synth.refine_rounds", "card.axioms.unary", "card.axioms.pairwise",
    "card.axioms.update", "card.axioms.cover", "card.axioms.venn",
    "quant.instances",
]


def die(msg):
    print(f"sharpiebench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then rebuilds incrementally; returns nothing."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        die("run from the root of a sharpie checkout (src/ is missing)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "sharpiebench_harness"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed; see " + log_path)


def harness(*args):
    try:
        proc = subprocess.run([HARNESS, "--manifest", MANIFEST, *args],
                              stdout=subprocess.PIPE, timeout=HARNESS_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        die(f"harness exceeded {HARNESS_TIMEOUT_S}s")
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"harness failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def geomean(values):
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))


def check(manifest, raw):
    """Verdict, re-check and golden checks over every call of the run.

    Returns (attempted, failed, changed inputs)."""
    inputs = manifest["inputs"]
    calls = [c for p in raw["passes"] for c in p["calls"]]
    if "traced_pass" in raw:
        calls += raw["traced_pass"]["calls"]
    failed, changed = 0, set()
    for c in calls:
        name = c["input"]
        golden = inputs[name].get("golden", {})
        want = "verified" if raw["expect_safe"][name] else "unsafe"
        ok = c["outcome"] == want
        if want == "verified" and raw["recheck"].get(name) is not True:
            ok = False  # The invariant failed (or missed) the explicit re-check.
        if not ok:
            failed += 1
            print(f"sharpiebench: {name}: {c['outcome']} (expected {want})",
                  file=sys.stderr)
        if (c["bodies"], c["atoms"]) != (golden.get("bodies"), golden.get("atoms")):
            changed.add(name)
    for name in sorted(changed):
        print(f"sharpiebench: {name}: invariant differs from the golden output",
              file=sys.stderr)
    for name, h in sorted(raw["hashes"].items()):
        old = inputs[name].get("golden", {}).get("hash")
        if h != old:
            print(f"warning: canonical hash of {name} moved: {old} -> {h}",
                  file=sys.stderr)
    attempted = len(calls) + raw.get("warm_attempted", 0)
    failed += raw.get("warm_failed", 0)
    return attempted, failed, changed


def end_to_end(raw):
    """A pass over the inputs costs each input's median call: an input may
    be called several times in a run, and every call is one sample."""
    seconds, cpu = {}, {}
    for p in raw["passes"]:
        for c in p["calls"]:
            seconds.setdefault(c["input"], []).append(c["seconds"])
            cpu.setdefault(c["input"], []).append(c["cpu_s"])
    wall = [statistics.median(ts) for ts in seconds.values()]
    return {
        "setup_s": (raw["setup_s"], "s"),
        "wall_s": (sum(wall), "s"),
        "verdict_geomean_s": (geomean(wall), "s"),
        "cpu_s": (sum(statistics.median(ts) for ts in cpu.values()), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw, units, attempted, failed, changed):
    layers = dict(raw["layers"])
    layers["front.parse_ms"] = raw["parse_ms"]
    layers["front.hash_ms"] = raw["hash_ms"]
    layers["failed_ratio"] = failed / attempted
    layers["invariants_changed"] = len(changed)
    return {name: (layers.get(name, 0.0), unit) for name, unit in units.items()}


def run_workload(args, spec):
    manifest = load_json(MANIFEST)
    if args.workload not in manifest["workloads"]:
        die(f"unknown workload '{args.workload}'")
    out = os.path.join(BUILD_DIR, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    raw = harness("--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", out)
    attempted, failed, changed = check(manifest, raw)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(raw, units, attempted, failed, changed)
        print(f"trace: {', '.join(raw['trace_files'])}; coverage "
              f"{raw['layers']['obs.trace_coverage_ratio']:.3f} (target 0.95), "
              f"largest uncovered span: {raw['top_uncovered']} "
              f"({raw['top_uncovered_s']:.3f}s)", file=sys.stderr)
        if "warm_samples" in raw["layers"]:
            print(f"warm stream: {int(raw['layers']['warm_samples'])} samples",
                  file=sys.stderr)
    else:
        metrics = end_to_end(raw)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not changed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump({"result": result, "raw": raw}, f, indent=1)
    return result


def selftest(spec):
    manifest = load_json(MANIFEST)
    drift = []
    for name, w in manifest["workloads"].items():
        if w["workers"] != 1:
            continue
        runs = []
        for seed in (1, 2):
            ns = argparse.Namespace(workload=name, seed=seed, seconds=1, trace=1)
            runs.append(run_workload(ns, spec)["metrics"])
        for count in EXACT_COUNTS:
            a, b = runs[0][count]["value"], runs[1][count]["value"]
            status = "ok" if a == b else "DRIFT"
            print(f"{name:16s} {count:24s} {a:>12g} {b:>12g} {status}")
            if a != b:
                drift.append(f"{name}:{count}")
    if drift:
        print("exact-count self-test FAILED: " + ", ".join(drift))
        return 1
    print("exact-count self-test passed")
    return 0


def write_golden():
    manifest = load_json(MANIFEST)
    golden = harness("--golden")
    for name, g in golden.items():
        entry = manifest["inputs"][name]
        want = "verified" if g.pop("expect_safe") else "unsafe"
        recheck = g.pop("recheck")
        if g["outcome"] != want or (want == "verified" and recheck is not True):
            die(f"{name}: {g['outcome']} (expected {want}), re-check {recheck}")
        if entry.get("golden", {}).get("hash") not in (None, g["hash"]):
            print(f"warning: canonical hash of {name} moved", file=sys.stderr)
        entry["golden"] = g
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"golden outputs of {len(golden)} inputs written to {MANIFEST}")
    return 0


def host():
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo") if line.startswith("model name")),
               platform.processor())
    compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                              text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": "Release (-O2 -DNDEBUG)", "os": platform.platform()}


def baseline(spec, seeds):
    manifest = load_json(MANIFEST)
    report = {"host": host(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in manifest["workloads"]:
        runs, run_s = [], []
        for seed in range(1, seeds + 1):
            ns = argparse.Namespace(workload=name, seed=seed,
                                    seconds=spec["run_seconds"], trace=0)
            t0 = time.monotonic()
            runs.append(run_workload(ns, spec))
            run_s.append(time.monotonic() - t0)
        ns = argparse.Namespace(workload=name, seed=1,
                                seconds=spec["run_seconds"], trace=1)
        t0 = time.monotonic()
        traced = run_workload(ns, spec)
        traced_run_s = time.monotonic() - t0
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": q2, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / q2 if q2 else 0,
                                       "bound": metric["bound"],
                                       "unit": metric["unit"]}
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "run_s": {"untraced_max": max(run_s), "traced": traced_run_s},
            "end_to_end": summary,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--baseline", type=int, metavar="N")
    args = ap.parse_args()
    spec_path = "BENCHMARK.json"
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found; run from the repository root")
    spec = load_json(spec_path)
    build()
    if args.selftest:
        return selftest(spec)
    if args.write_golden:
        return write_golden()
    if args.baseline:
        return baseline(spec, args.baseline)
    if not args.workload:
        die("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    print(json.dumps(run_workload(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
