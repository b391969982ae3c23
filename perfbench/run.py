#!/usr/bin/env python3
"""Run one workload of the wlansim benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the wlansim libraries
from src/ plus the wlbench load generator) into $CARGO_TARGET_DIR or
.bench_build, runs the workload, checks its outputs, and prints
human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and keeps the span file under <build>/traces/). Each
result, with its machine fingerprint, is also saved under
<build>/results/ for perfbench/report.py compare.

    python3 perfbench/run.py --make-reference SEEDS

regenerates perfbench/reference_waterfall.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import harness  # noqa: E402

WORKLOADS = ("waterfall_cold", "drop_warm", "service_mixed", "cosim_table2")
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure once, then build incrementally; the log stays in the
    build directory."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd), 3)
    return os.path.join(build_dir, "wlbench")


def run_wlbench(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("wlbench timed out after %d s" % RUN_TIMEOUT_S, 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        fail("wlbench exited with %d" % proc.returncode, 4)


def describe_timings(report):
    """One line per raw timing: median, the highest percentile with at
    least ten samples beyond it, and the sample count."""
    lines = []
    for name in ("setup_s", "waterfall_s", "warm_ms", "cold_s", "graph_packet_s",
                 "cosim_packet_s", "drop_s"):
        values = report["samples"].get(name)
        if not values:
            continue
        med, tail, tail_v, n = harness.timing_summary(values)
        tail_txt = ("p%g %.6g" % (tail, tail_v)) if tail else "no percentile has 10 beyond"
        lines.append("  %-16s median %.6g, %s (n=%d)" % (name, med, tail_txt, n))
    return lines


def make_reference(root, build_dir, seeds):
    binary = build(root, build_dir)
    raw = os.path.join(build_dir, "reference_raw.json")
    run_wlbench(binary, ["--make-reference", str(seeds), "--out", raw])
    rule = {"fixed_budget_packets": 512}
    ref = harness.build_reference(harness.load_report(raw)["rows"]["reference"], rule)
    with open(os.path.join(HERE, "reference_waterfall.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    os.remove(raw)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--make-reference", type=int, metavar="SEEDS")
    a = ap.parse_args()

    root = os.getcwd()
    for need in ("BENCHMARK.json", "src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the repository root" % need)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)

    if a.make_reference:
        make_reference(root, build_dir, a.make_reference)
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    declared = harness.load_json(os.path.join(root, "BENCHMARK.json"))
    reference = harness.load_json(os.path.join(HERE, "reference_waterfall.json"))
    binary = build(root, build_dir)

    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    workdir = os.path.join(build_dir, "runs", "%s-%d" % (tag, os.getpid()))
    report_path = workdir + ".report.json"
    spans_path = os.path.join(build_dir, "traces", tag + ".jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    try:
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--workdir", workdir, "--out", report_path]
        if a.trace:
            args += ["--spans", spans_path]
        run_wlbench(binary, args)
        report = harness.load_report(report_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(report_path):
            os.remove(report_path)

    attempted, wf_failures = harness.check_waterfall(report["rows"]["waterfall"], reference)
    attempted += report["attempted"]
    failures = report["failures"] + wf_failures
    failed = report["failed"] + len(wf_failures)

    kind = "per_layer" if a.trace else "end_to_end"
    try:
        if a.trace:
            with open(spans_path) as f:
                metrics = harness.per_layer(report, [json.loads(line) for line in f])
        else:
            metrics = harness.end_to_end(report)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        fail("the run lacks samples for its metrics: %r" % e, 5)
    units = {d["name"]: d["unit"] for d in declared[kind]}
    problems = harness.validate(metrics, declared[kind])
    if problems:
        fail("; ".join(problems), 5)
    nonfinite = [k for k, v in metrics.items() if not math.isfinite(v)]

    fp = harness.fingerprint(root, report["info"], int(report["counters"]["nproc"]))
    m = fp["machine"]
    print("wlansim benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (a.workload, a.seed, a.seconds, a.trace))
    print("machine: nproc=%s cpu=%s caches=%s build=%s native=%s compiler=%s"
          % (m["nproc"], m["cpu_model"], m["caches"], m["build_type"], m["wlansim_native"],
             m["compiler"]))
    print("code: commit=%s source=%s" % (fp["code"]["git_commit"], fp["code"]["source_digest"]))
    print("timings:")
    for line in describe_timings(report):
        print(line)
    print("metrics:")
    for k in sorted(metrics):
        print("  %-34s %.6g %s" % (k, metrics[k], units[k]))
    print("checks: attempted=%d failed=%d failed_frac=%.6g"
          % (attempted, failed, harness.failed_frac(attempted, failed)))
    for f in failures[:10]:
        print("  FAIL " + f)
    print("waterfall digest: %s" % report["info"].get("waterfall_digest", "none"))
    print("waterfall points whose own engine CI excludes the reference: %d of %d"
          % (harness.engine_ci_misses(report["rows"]["waterfall"], reference),
             len(report["rows"]["waterfall"])))

    result = {
        "correct": failed == 0 and not nonfinite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": harness.finite_or_sentinel(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(dict(result, workload=a.workload, seed=a.seed, seconds=a.seconds,
                       trace=a.trace, fingerprint=fp,
                       waterfall_digest=report["info"].get("waterfall_digest")), f, indent=1)
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
