#!/usr/bin/env python3
"""Parent-versus-change comparison over the end-to-end benchmark.

    python3 perfbench/compare.py --parent PARENT_TREE --change CHANGE_TREE \
        [--pairs 10]

PARENT_TREE and CHANGE_TREE are two source trees (e.g. clones checked out
at the two commits), each with this benchmark under perfbench/. The tool
runs `perfbench/run.py` in both, in alternating pairs (the parent goes first
in even pairs, the change in odd ones; pair i runs both sides at seed i+1),
then reports, for every workload and end-to-end metric of the parent's
BENCHMARK.json, each side's median and quartiles and a verdict:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's own spread
              (the distance between its quartiles);
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the run-to-run spread of either side exceeds the bound, unless
              every change run beats every parent run;
  same        otherwise (within the bound).

Each workload gets its own rows. Failed runs are listed, drop out of their
pair, and void any gain when the change has more of them than the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}, "exit": proc.returncode}
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    """parent/change: per-pair values (None for a failed run)."""
    lower = metric["better"] == "lower"
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    p_vals = [p for p, _ in pairs]
    c_vals = [c for _, c in pairs]
    if len(pairs) < 2:
        return "unresolved", 0, len(pairs)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    gap = (p_med - c_med) if lower else (c_med - p_med)  # > 0: change better
    bound = metric["bound"]
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    if wins * 10 >= 9 * len(pairs) and gap > (p_q3 - p_q1):
        return "gain", wins, len(pairs)
    all_better = (max(c_vals) < min(p_vals)) if lower else (
        min(c_vals) > max(p_vals))
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gap > bound * abs(p_med):
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def report(spec, runs):
    print("%-12s %-12s %30s %30s %8s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for workload, sides in runs.items():
        failed = {side: sum(1 for r in rs if not r.get("correct"))
                  for side, rs in sides.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = {side: [r["metrics"].get(name, {}).get("value")
                           if r.get("correct") else None for r in rs]
                    for side, rs in sides.items()}
            result, wins, n = verdict(metric, vals["parent"], vals["change"])
            if result == "gain" and failed["change"] > failed["parent"]:
                result = "not a gain: more failed runs than the parent"

            def fmt(values):
                values = [v for v in values if v is not None]
                if not values:
                    return "-"
                q1, med, q3 = quartiles(values)
                return "%.5g [%.5g, %.5g]" % (med, q1, q3)

            print("%-12s %-12s %30s %30s %5d/%-2d %s" % (
                workload, name, fmt(vals["parent"]), fmt(vals["change"]),
                wins, n, result))
        if failed["parent"] or failed["change"]:
            print("%-12s failed runs: parent %d, change %d" % (
                workload, failed["parent"], failed["change"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for pair in range(args.pairs):
            seed = pair + 1
            order = ["parent", "change"] if pair % 2 == 0 else [
                "change", "parent"]
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[workload][side].append(
                    run_once(tree, workload, seed, seconds))
            print("%s pair %d/%d done" % (workload, pair + 1, args.pairs),
                  file=sys.stderr, flush=True)
    report(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
