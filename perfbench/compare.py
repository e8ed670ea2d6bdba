#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files or directories of them, as ``run.py --trace 0``
writes to ``.perfbench_out/results/``: the parent commit's runs and the
change's, made with identical benchmark code and settings, alternating which
side runs first.  Runs of the two sides pair up by workload and seed.

For each workload and end-to-end figure the command prints each side's
median and quartiles, the change's wins over the pairs (ties count for
neither side) and a verdict:

* ``gain``: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's interquartile range;
* ``no gain: more failed``: it would be a gain, but the change's runs of the
  workload failed more operations than the parent's, so it does not count;
* ``unresolved``: a side's spread (IQR / median) exceeds the metric's bound
  and not every run of the change reads better than every run of the parent;
* ``regression``: the change's median is worse than the parent's by more
  than the bound (for a figure without a bound in BENCHMARK.json: it loses
  9/10 of the pairs by more than the parent's IQR);
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from stats import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9


def load(path: str) -> dict:
    """workload -> seed -> (figures, failed operations), from untraced result files."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], {})[result["seed"]] = (result["figures"], result["result"]["failed"])
    return runs


def _spread(q1: float, med: float, q3: float) -> float:
    if med:
        return (q3 - q1) / abs(med)
    return 0.0 if q3 == q1 else float("inf")


def verdict(base: list[float], head: list[float], better: str, bound: float | None,
            more_failed: bool = False) -> tuple[str, int]:
    """The verdict on paired runs of one figure, and the change's win count.

    ``more_failed`` says that the change's runs failed more operations than
    the parent's; a gain then does not count.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(head)
    gap = sign * (hmed - bmed)
    if wins >= GAIN_SHARE * len(base) and gap > bq3 - bq1:
        return ("no gain: more failed" if more_failed else "gain"), wins
    spread = max(_spread(bq1, bmed, bq3), _spread(hq1, hmed, hq3))
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if bound is not None and spread > bound and not all_better:
        return "unresolved", wins
    if bound is not None:
        return ("regression" if -gap > bound * abs(bmed) else "within bound"), wins
    if losses >= GAIN_SHARE * len(base) and -gap > bq3 - bq1:
        return "regression", wins
    return "within bound", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result file or directory of the parent commit")
    parser.add_argument("head", help="result file or directory of the change")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    base_runs, head_runs = load(args.base), load(args.head)
    print(f"{'workload':12s} {'metric':24s} {'unit':8s} {'base p50 [q1, q3]':>30s} "
          f"{'head p50 [q1, q3]':>30s} {'wins':>6s}  verdict")
    compared = 0
    for workload in sorted(set(base_runs) & set(head_runs)):
        seeds = sorted(set(base_runs[workload]) & set(head_runs[workload]))
        if not seeds:
            continue
        runs = [side[workload][s][0] for side in (base_runs, head_runs) for s in seeds]
        failed = [sum(side[workload][s][1] for s in seeds) for side in (base_runs, head_runs)]
        print(f"{workload:12s} failed operations: base {failed[0]}, head {failed[1]}")
        for metric, figure in runs[0].items():
            if not all(metric in run for run in runs):
                continue
            base = [base_runs[workload][s][0][metric]["value"] for s in seeds]
            head = [head_runs[workload][s][0][metric]["value"] for s in seeds]
            result, wins = verdict(base, head, figure["better"], bounds.get(metric), failed[1] > failed[0])
            cells = []
            for values in (base, head):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:12s} {metric:24s} {figure['unit']:8s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{wins:>3d}/{len(seeds):<2d}  {result}")
            compared += 1
    if not compared:
        print("no workload and seed appear on both sides", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
