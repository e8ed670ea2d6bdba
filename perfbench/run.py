#!/usr/bin/env python3
"""Run one bccanon benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {tiny-stream,large-pairs,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports ``bccanon`` from the
checkout's ``src`` and from nowhere else.  ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` every per-layer metric, as a table and then
as one JSON line, the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result, with the environment block, all figures and any failed
checks, is written to ``.perfbench_out/results/``; a traced run also writes
its spans to ``.perfbench_out/spans/``.  ``perfbench/compare.py`` compares
the result files of two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("tiny-stream", "large-pairs", "cli-mix")


def _load_source():
    """Import bccanon from the checkout's src, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "bccanon", "__init__.py")):
        sys.exit(f"perfbench: no bccanon source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import bccanon

    if os.path.dirname(os.path.dirname(os.path.abspath(bccanon.__file__))) != SRC:
        sys.exit(f"perfbench: bccanon was imported from {bccanon.__file__}, not from {SRC}")


def environment(workload: str, seed: int, samples: dict) -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": workload,
        "seed": seed,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_source()
    import workloads
    from tracing import write_spans

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{args.trace}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    figures = result["layers"] if args.trace else result["end_to_end"]

    env = environment(args.workload, args.seed, result["samples"])
    print("env " + json.dumps(env))
    for name, figure in figures.items():
        extra = "".join(f"  {key}={figure[key]:g}" for key in ("percentile", "samples") if key in figure)
        print(f"{args.workload:12s} {name:28s} {figure['value']:14.6g} {figure['unit']}{extra}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")

    metrics = {}
    for entry in contract:
        figure = figures[entry["name"]]
        if figure["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {figure['unit']}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": figure["value"], "unit": figure["unit"]}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "figures": figures,
            "missing_targets": result.get("missing_targets", []),
            "problems": result["problems"],
            "result": line,
        }, handle, indent=1)
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        write_spans(os.path.join(OUT, "spans", f"{tag}.json"), result["span_groups"])

    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
