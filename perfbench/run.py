#!/usr/bin/env python3
"""Linear Road benchmark of the CONFLuEnCE engine.

Builds perfbench_lrb (perfbench/CMakeLists.txt: the engine library from
src/ plus the driver, Release, DCHECKs and lock-order checks off) into
.bench_build/, runs one workload and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. A table of the
metrics with their sample counts goes to stderr. See perfbench/README.md.

  python3 perfbench/run.py --workload fig5_ramp --seed 42 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a run with the engine's profiler and wave tracer on).
Exit status: 0 when every output checked out, 1 on a golden mismatch, a
lost report or a failed process, 2 on a usage or environment error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_DIR = HERE / "golden"
PROCESS_TIMEOUT_S = 170
# On the virtual workloads the profiler's self times must account for at
# least this share of the traced Run wall time, or a phase went unattributed.
MIN_PROFILE_COVERAGE_PCT = 90.0

# Golden keys of a virtual run: the engine's output counts plus the toll
# response percentiles on the virtual clock (µs). Bit-identical per seed.
OUTPUT_KEYS = ("reports_generated", "accidents_injected", "accidents_recorded",
               "toll_notifications", "accident_notifications", "tolls_calculated",
               "total_firings", "director_iterations")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cpu_us_per_report": "us",
    "toll_trimmed_mean_s": "s",
    "toll_p95_s": "s",
}


def die(message, code=2):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("engine sources not found under %s; run from a full checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die("%s not found" % tool)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", "-DCONFLUENCE_DCHECKS=OFF",
                     "-DCONFLUENCE_LOCK_ORDER_CHECKS=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed", 1)
    return BUILD_DIR / "perfbench_lrb"


def run_once(binary, workload, seed, traced):
    """One repetition in its own process; returns its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(cmd), 1)
    if proc.returncode != 0:
        die("%s exited with %d" % (" ".join(cmd), proc.returncode), 1)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    b = record["build"]
    if b["type"] != "Release" or b["dchecks"] or b["lock_order_checks"]:
        die("refusing to report from a %s build with dchecks=%s "
            "lock_order_checks=%s" % (b["type"], b["dchecks"], b["lock_order_checks"]))
    return record


def fingerprint(record):
    """The deterministic virtual outputs of a run: golden-file content."""
    fp = {k: record["outputs"][k] for k in OUTPUT_KEYS}
    for p in (50, 95, 99):
        fp["toll_p%d_us" % p] = benchlib.percentile(record["toll_engine_us"], p).value
    return fp


def golden_path(workload, seed):
    return GOLDEN_DIR / ("%s_seed%d.json" % (workload, seed))


def check_virtual(records, workload, seed):
    """Count the runs whose outputs differ from the golden file (or, for a
    seed without one, from the first run). Returns (failed, problems)."""
    path = golden_path(workload, seed)
    expected = json.loads(path.read_text()) if path.is_file() else fingerprint(records[0])
    failed, problems = 0, []
    for i, r in enumerate(records):
        issues = benchlib.compare_golden(expected, fingerprint(r))
        out = r["outputs"]
        if out["toll_notifications"] != out["tolls_calculated"]:
            issues.append("tolls calculated but not notified")
        if issues:
            failed += 1
            problems += ["run %d (%s): %s" % (i, "traced" if r["traced"] else "untraced", m)
                         for m in issues]
    return failed, problems


def check_live(records):
    """Operations are report deliveries and toll notifications; a report
    lost or rejected, or a toll count off the expected, is a failure."""
    attempted = failed = 0
    problems = []
    for i, r in enumerate(records):
        out = r["outputs"]
        lost = out["reports_sent"] - out["reports_delivered"]
        rejected = out["parse_errors"] + out["schema_rejects"] + out["frame_errors"]
        toll_gap = abs(out["toll_notifications"] - out["expected_tolls"])
        attempted += out["reports_sent"] + out["expected_tolls"]
        failed += lost + rejected + toll_gap
        if lost or rejected or toll_gap:
            problems.append("run %d: %d lost, %d rejected, %d tolls vs %d expected"
                            % (i, lost, rejected, out["toll_notifications"],
                               out["expected_tolls"]))
    return attempted, failed, problems


def end_to_end(records):
    """Aggregate the repetitions of a run into the end-to-end metrics.

    Host timings take the fastest repetition: every repetition runs the same
    inputs, and on a shared host interference only ever adds time. Set-up
    time is the median over the processes of each one's fastest set-up, so
    neither one preempted set-up nor one slow process moves it. The rest are
    medians over the repetitions, so one stalled repetition of live_tcp does
    not move them."""
    med = benchlib.median
    p95 = [benchlib.percentile(r["toll_engine_us"], 95) for r in records]
    values = {
        "setup_s": med([min(r["setup_s"]) for r in records]),
        "wall_s": min(r["wall_s"] for r in records),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in records]),
        "cpu_us_per_report": min(r["cpu_s"] * 1e6 / r["reports"] for r in records),
        "toll_trimmed_mean_s": med([benchlib.trimmed_mean(r["toll_engine_us"], 95)
                                    for r in records]) / 1e6,
        "toll_p95_s": med([p.value for p in p95]) / 1e6,
    }
    n = len(records)
    notes = {
        "setup_s": "median of %d processes' fastest of %d set-ups" % (
            n, len(records[0]["setup_s"])),
        "wall_s": "fastest of %d runs" % n,
        "cpu_us_per_report": "fastest of %d runs, %d reports" % (n, records[0]["reports"]),
        "peak_rss_mb": "median of %d runs" % n,
        "toll_trimmed_mean_s": "n=%d tolls, mean at or below p95" % p95[0].n,
        "toll_p95_s": "n=%d tolls, %d beyond%s" % (
            p95[0].n, p95[0].beyond, "" if p95[0].supported else " (UNSUPPORTED)"),
    }
    return values, notes


def per_layer(traced, untraced):
    values = dict(traced["layers"])
    if traced["workload"] == "live_tcp":
        # Live wall time is fixed by the send schedule; compare CPU instead.
        values["obs.trace_overhead_ratio"] = (
            (traced["cpu_s"] / traced["reports"]) / (untraced["cpu_s"] / untraced["reports"]))
        values["net.send_lag_p99_ms"] = benchlib.percentile(traced["send_lag_us"], 99).value / 1e3
    else:
        values["obs.trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        values["net.send_lag_p99_ms"] = 0.0
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at %s" % spec_path)
    spec = json.loads(spec_path.read_text())
    problems = benchlib.validate_benchmark(spec)
    if problems:
        die("BENCHMARK.json: " + "; ".join(problems))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    if args.seed < 0:
        die("seed must be non-negative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        die("seconds must be positive")
    binary = build()

    live = args.workload == "live_tcp"
    untraced = []
    start = time.monotonic()
    if args.trace:
        untraced.append(run_once(binary, args.workload, args.seed, False))
        records = untraced + [run_once(binary, args.workload, args.seed, True)]
    else:
        # Repeat whole runs, each in its own process, until the time is used.
        while not untraced or time.monotonic() - start < seconds:
            untraced.append(run_once(binary, args.workload, args.seed, False))
        records = untraced

    if live:
        attempted, failed, problems = check_live(records)
    else:
        attempted = len(records)
        failed, problems = check_virtual(records, args.workload, args.seed)

    if args.trace:
        metrics = per_layer(records[-1], untraced[0])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        notes = {}
        coverage = metrics["obs.profile_coverage_pct"]
        if not live and coverage < MIN_PROFILE_COVERAGE_PCT:
            problems.append("profiler self times cover %.1f%% of the traced Run "
                            "wall time, below %g%%" % (coverage, MIN_PROFILE_COVERAGE_PCT))
    else:
        metrics, notes = end_to_end(records)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        problems += ["unit of %s: BENCHMARK.json says %s, the benchmark measures %s"
                     % (k, units.get(k), u) for k, u in END_TO_END_UNITS.items()
                     if k in units and units[k] != u]
    problems += benchlib.check_declared(units, metrics, "per_layer" if args.trace else "end_to_end")

    for line in problems:
        print("perfbench: FAIL %s" % line, file=sys.stderr)
    print("perfbench: %s seed=%d trace=%d runs=%d (%s build, DCHECKs off, "
          "lock-order checks off)" % (args.workload, args.seed, args.trace, len(records),
                                      records[0]["build"]["type"]), file=sys.stderr)
    for name in sorted(metrics):
        print("  %-36s %14.6g %-6s %s" % (name, metrics[name], units.get(name, "?"),
                                        notes.get(name, "")), file=sys.stderr)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
