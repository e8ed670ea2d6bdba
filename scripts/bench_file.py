#!/usr/bin/env python3
"""Fold the benchmark results of a parent commit and a change into one BENCH file.

Usage: python scripts/bench_file.py BASE_DIR HEAD_DIR OUT.json

BASE_DIR and HEAD_DIR hold the ``--trace 0`` result files that
``perfbench/run.py`` writes to ``.perfbench_out/results/``: the parent's runs
and the change's, made with the same benchmark code and settings.  Runs pair
up by workload and seed, and each figure gets the verdict of
``perfbench/compare.py``, whose loader and verdict rule this script uses.

OUT.json holds the environments of each side's runs and, per workload, the
paired seeds, the failed operations of each side and, per figure, its unit,
its bound from BENCHMARK.json, each side's quartiles and per-seed values,
the change's wins and the verdict.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from compare import load, verdict  # noqa: E402
from stats import quartiles  # noqa: E402

# Keys of a run's environment block that describe the run, not the host.
RUN_KEYS = ("workload", "seed", "samples")


def environments(path: str) -> list[dict]:
    """The distinct host environments of the untraced result files under ``path``."""
    found = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") != 0:
            continue
        env = {key: value for key, value in result["env"].items() if key not in RUN_KEYS}
        if env not in found:
            found.append(env)
    return found


def _side(values: list[float], seeds: list[int]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "runs": dict(zip(map(str, seeds), values))}


def bench(base_dir: str, head_dir: str) -> dict:
    """The BENCH record of two result directories."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    base_runs, head_runs = load(base_dir), load(head_dir)
    workloads = {}
    for workload in sorted(set(base_runs) & set(head_runs)):
        seeds = sorted(set(base_runs[workload]) & set(head_runs[workload]))
        if not seeds:
            continue
        base = [base_runs[workload][s] for s in seeds]
        head = [head_runs[workload][s] for s in seeds]
        failed = {"base": sum(f for _, f in base), "head": sum(f for _, f in head)}
        metrics = {}
        for metric, figure in base[0][0].items():
            if not all(metric in figures for figures, _ in base + head):
                continue
            b = [figures[metric]["value"] for figures, _ in base]
            h = [figures[metric]["value"] for figures, _ in head]
            result, wins = verdict(b, h, figure["better"], bounds.get(metric), failed["head"] > failed["base"])
            metrics[metric] = {
                "unit": figure["unit"],
                "better": figure["better"],
                "bound": bounds.get(metric),
                "base": _side(b, seeds),
                "head": _side(h, seeds),
                "wins": wins,
                "verdict": result,
            }
        workloads[workload] = {"seeds": seeds, "failed": failed, "metrics": metrics}
    return {
        "environment": {"base": environments(base_dir), "head": environments(head_dir)},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result directory of the parent commit")
    parser.add_argument("head", help="result directory of the change")
    parser.add_argument("out", help="BENCH file to write")
    args = parser.parse_args(argv)
    record = bench(args.base, args.head)
    if not record["workloads"]:
        print("no workload and seed appear on both sides", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
