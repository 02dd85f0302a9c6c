#!/usr/bin/env python3
"""Compare a google-benchmark JSON report against a checked-in baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--threshold 2.0]
                              [--filter SUBSTRING]

Fails (exit 1) when any benchmark present in both reports is more than
--threshold times slower (by real_time per iteration) than the baseline,
comparing the median of each report's repeated iteration rows (run the
benchmark binary with --benchmark_repetitions=N; a single sample of a
sub-microsecond benchmark can spread ~2x on a shared host),
or when a baseline benchmark is missing from the current report entirely —
a silently skipped metric is how a regression check rots, so every missing
name is printed and fatal (pass --allow-missing while retiring a benchmark,
then refresh the baseline). Benchmarks only present in the current report
are reported but never fatal, so adding benchmarks does not require
touching the baseline in the same change.

The baseline is runner-class dependent: it records absolute times from the
CI runner family, so the threshold is deliberately loose (default 2x) to
absorb machine-to-machine variance while still catching order-of-magnitude
regressions such as an accidentally disabled cache. Refresh the baseline
(bench/baselines/) whenever the benchmark suite or the runner class changes.
"""

import argparse
import json
import statistics
import sys


def load_times(path):
    """Median real_time per benchmark name over its iteration rows."""
    with open(path) as f:
        report = json.load(f)
    samples = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        samples.setdefault(bench["name"], []).append(float(bench["real_time"]))
    return {name: statistics.median(ts) for name, ts in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument(
        "--filter",
        default="",
        help="only compare benchmarks whose name contains this substring",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="tolerate baseline benchmarks absent from the current report "
        "(transition aid while retiring a benchmark)",
    )
    args = parser.parse_args()

    current = load_times(args.current)
    baseline = load_times(args.baseline)

    failures = []
    missing = []
    compared = 0
    for name, base_time in sorted(baseline.items()):
        if args.filter and args.filter not in name:
            continue
        if name not in current:
            missing.append(name)
            continue
        compared += 1
        ratio = current[name] / base_time if base_time > 0 else float("inf")
        status = "FAIL" if ratio > args.threshold else "ok"
        print(
            f"{status:4s} {name}: {current[name]:.0f}ns vs "
            f"baseline {base_time:.0f}ns ({ratio:.2f}x)"
        )
        if ratio > args.threshold:
            failures.append((name, ratio))

    for name in sorted(current):
        if name not in baseline and (not args.filter or args.filter in name):
            print(f"note: {name} not in baseline (skipped)")

    for name in missing:
        label = "note" if args.allow_missing else "FAIL"
        print(f"{label}: {name} in baseline but missing from current report")

    if compared == 0:
        print("error: no benchmarks compared — wrong filter or empty reports")
        return 1
    exit_code = 0
    if failures:
        print(
            f"{len(failures)} benchmark(s) regressed more than "
            f"{args.threshold}x vs baseline:"
        )
        # Repeat each failure with its measured ratio and the limit it broke,
        # so the CI log tail alone (without scrolling to the per-benchmark
        # table) says which benchmark failed and by how much.
        for name, ratio in failures:
            print(
                f"  {name}: {current[name]:.0f}ns vs baseline "
                f"{baseline[name]:.0f}ns — {ratio:.2f}x exceeds the "
                f"{args.threshold}x threshold"
            )
        exit_code = 1
    if missing and not args.allow_missing:
        print(
            f"{len(missing)} baseline benchmark(s) missing from the current "
            f"report: {', '.join(missing)}"
        )
        exit_code = 1
    elif missing:
        # An --allow-missing run must still say exactly what it skipped, so
        # the transition aid cannot silently become a permanent blind spot.
        print(
            f"note: --allow-missing skipped {len(missing)} baseline "
            f"benchmark(s): {', '.join(missing)}"
        )
    if exit_code == 0:
        print(f"{compared} benchmark(s) within {args.threshold}x of baseline")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
