#!/usr/bin/env python3
"""End-to-end benchmark of the Aceso planner: one workload per invocation.

    python3 perfbench/run.py --workload search-deep|search-wide|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles src/) into
.bench_build/, runs the workload, checks its outputs, prints every metric by
name with its unit and, as the last stdout line, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The full
result with its run context is written to .bench_build/results/.

Exit code: 0 when every check passed; 1 when a check failed (the result line
is still printed); 2 when the benchmark could not build or run (no result).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "aceso_perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("search-deep", "search-wide", "serve-mix")
# Timeout for one workload process; the contract allows 180 s per run.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ tree next to perfbench/; nothing to build")
        return False
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_context(args, child_context):
    """Facts recorded beside every result (ROADMAP: core count and sample
    size on every pinned number)."""
    ctx = dict(child_context)
    ctx["nproc"] = os.cpu_count()
    ctx["build_type"] = BUILD_TYPE
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"],
                                         capture_output=True, text=True)
                    compiler = (out.stdout.splitlines() or [path])[0]
    ctx["compiler"] = compiler
    ctx["git_revision"] = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            ctx["git_revision"] = rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ctx["source_sha256"] = digest.hexdigest()[:16]
    ctx["seed"] = args.seed
    ctx["seconds"] = args.seconds
    ctx["tail_percentiles"] = {"hit": "p99", "miss": "p90"}
    return ctx


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20240422)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        log("perfbench: build failed")
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload timed out")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: workload exited with", proc.returncode)
        return 2
    child = json.loads(lines[-1])

    metrics = {}
    not_exercised = []
    for m in wanted:
        got = child["metrics"].get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not drive did no work.
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
            not_exercised.append(m["name"])
        if got is None or got["value"] is None or not math.isfinite(
                got["value"]):
            log("perfbench: workload did not report", m["name"])
            return 2
        if got["unit"] != m["unit"]:
            log("perfbench: unit mismatch for", m["name"], got["unit"])
            return 2
        metrics[m["name"]] = got

    attempted, failed = child["attempted"], child["failed"]
    correct = bool(child["correct"]) and failed == 0 and attempted > 0

    def show(name, m, note=""):
        samples = " (n=%d)" % m["samples"] if m["samples"] else ""
        print("%-28s %14.6g %s%s%s" % (name, m["value"], m["unit"], samples,
                                       note))

    for name, m in metrics.items():
        show(name, m)
    # Wall-clock times: reported by name, not gated (see README.md).
    reported = {k: v for k, v in child["metrics"].items()
                if k not in metrics and not args.trace}
    for name, m in sorted(reported.items()):
        show(name, m, "  [reported, not gated]")
    print("%-28s %14.6g ratio (%d/%d)" % (
        "fail_ratio", failed / max(attempted, 1), failed, attempted))
    for error in child["errors"]:
        print("FAILED:", error)

    full = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / max(attempted, 1),
        "errors": child["errors"],
        "metrics": metrics,
        "reported_not_gated": reported,
        "not_exercised": not_exercised,
        "context": run_context(args, child["context"]),
    }
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    print("result file:", os.path.relpath(path, ROOT))

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
