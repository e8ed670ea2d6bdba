#!/usr/bin/env python3
"""Time the benchmark's library operation of two checkouts in one process.

Usage: PYTHONPATH=src python scripts/ab_library.py BASE_DIR HEAD_DIR [--seed 1] [--blocks 40] [--rounds 20]

BASE_DIR and HEAD_DIR are checkouts of two commits (one may be this one).
Each one's ``src/bccanon`` is copied into a temporary directory as the
package ``bccanon_base`` or ``bccanon_head``, and both are imported here.
The inputs are tiny-stream's pools of ``perfbench/cases.library_case``
pairs (m = 3..9), drawn from ``--seed`` as ``perfbench/run.py`` draws
them; building them takes the ``bccanon`` on PYTHONPATH.

First every pair runs once through each side, and the two must agree:
the verdict, rank (A : B), the Gram residual, rank A and rank B, the class
and rank, and W and P in every bit, sign bits included.  A mismatch is
printed and the script exits 1.  Then the sides take turns in
``--blocks`` blocks, the first side alternating from block to block; a
block times ``--rounds`` passes over the pools with
``perfbench/child.library_op`` (build, check, factor).  The script prints,
for the whole operation and for its check, each side's median over blocks
in microseconds per pair, the median over blocks of the ratio head / base
and the blocks the head won.  Comparing a checkout with itself shows the
noise floor.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from child import library_op  # noqa: E402
from workloads import library_pools  # noqa: E402

SIDES = ("base", "head")


def load_packages(checkouts: dict[str, str], into: str) -> dict:
    """Import each checkout's ``src/bccanon`` as ``bccanon_<side>`` from a copy under ``into``."""
    sys.path.insert(0, into)
    packages = {}
    for side, checkout in checkouts.items():
        shutil.copytree(os.path.join(checkout, "src", "bccanon"), os.path.join(into, f"bccanon_{side}"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        packages[side] = importlib.import_module(f"bccanon_{side}")
    return packages


def _outcome(package, case) -> dict:
    report, form, _, _ = library_op(package, case.A, case.B)
    return {
        "verdict": report.ok, "rank_AB": report.rank_AB, "gram_residual": report.gram_residual.hex(),
        "rank_A": report.rank_A, "rank_B": report.rank_B, "class": form.classification.value, "rank": form.rank,
        "W": form.W.tobytes(), "P": form.P.tobytes(),  # raw bytes: every bit, the sign of each zero included
    }


def mismatches(packages: dict, pools) -> list[str]:
    """Every field on which the two sides disagree, one line per pair and field."""
    found = []
    for pool in pools:
        for index, case in enumerate(pool):
            base, head = (_outcome(packages[side], case) for side in SIDES)
            found += [f"m={case.m} pair {index}: {key} differs" for key in base if base[key] != head[key]]
    return found


def time_block(package, pools, rounds: int) -> tuple[float, float]:
    """(operation, check) seconds per pair over ``rounds`` passes of the pools."""
    pair_s = check_s = 0.0
    count = 0
    for _ in range(rounds):
        for pool in pools:
            for case in pool:
                _, _, t_check, t_pair = library_op(package, case.A, case.B)
                pair_s += t_pair
                check_s += t_check
                count += 1
    return pair_s / count, check_s / count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    pools = library_pools("tiny-stream", np.random.default_rng(args.seed))
    with tempfile.TemporaryDirectory() as into:
        packages = load_packages({"base": args.base, "head": args.head}, into)
        found = mismatches(packages, pools)
        for line in found:
            print(line)
        if found:
            return 1
        print(f"tiny-stream seed {args.seed}: {sum(map(len, pools))} pairs agree in every bit")
        times = {side: [] for side in SIDES}
        for block in range(args.blocks):
            for side in SIDES[::-1] if block % 2 else SIDES:
                times[side].append(time_block(packages[side], pools, args.rounds))
    for which, label in enumerate(("pair", "check")):
        base, head = ([t[which] for t in times[side]] for side in SIDES)
        ratio = statistics.median(h / b for b, h in zip(base, head))
        wins = sum(h < b for b, h in zip(base, head))
        print(f"{label}: base {statistics.median(base) * 1e6:.2f} us, head {statistics.median(head) * 1e6:.2f} us, "
              f"ratio {ratio:.4f}, head won {wins}/{args.blocks}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
