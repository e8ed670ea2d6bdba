"""Entry points the benchmark runs in fresh interpreters.

    child.py setup-lib DATA.npz      import bccanon, run one op per pair in DATA;
                                     print the seconds taken
    child.py setup-cli               import bccanon.cli; print the seconds taken
    child.py cli SPANS.json -- ARGV  time the import of bccanon.cli, wrap the
                                     traced targets, run bccanon.cli.main(ARGV)
                                     and write the import time and spans

Nothing heavy is imported before a timer starts, so each time includes
every import it causes.  The children find ``bccanon`` through PYTHONPATH,
which the benchmark points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time


def library_op(bccanon, a, b):
    """One caller's operation: build the pair, check it, factor it.

    Returns (report, form, seconds until the verdict, seconds in total).
    """
    t0 = time.perf_counter()
    pair = bccanon.BoundaryPair.from_matrices(a, b)
    report = bccanon.check_self_adjoint(pair)
    t1 = time.perf_counter()
    decompose = bccanon.canonical_decompose if pair.spec.is_odd_order else bccanon.even_canonical_decompose
    form = decompose(pair)
    return report, form, t1 - t0, time.perf_counter() - t0


def _setup_lib(data_path: str) -> None:
    t0 = time.perf_counter()
    import bccanon

    import_s = time.perf_counter() - t0
    import numpy as np

    with np.load(data_path) as data:  # the benchmark's own input: untimed
        pairs = [(data[f"A{i}"], data[f"B{i}"]) for i in range(len(data.files) // 2)]
    t0 = time.perf_counter()
    for a, b in pairs:
        library_op(bccanon, a, b)
    print(import_s + time.perf_counter() - t0)


def _setup_cli() -> None:
    t0 = time.perf_counter()
    import bccanon.cli  # noqa: F401

    print(time.perf_counter() - t0)


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import bccanon.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        code = bccanon.cli.main(argv)
    finally:
        tracer.recording = False
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "missing": tracer.missing, "spans": tracer.spans}, handle)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup-lib"] and len(argv) == 2:
        _setup_lib(argv[1])
        return 0
    if argv == ["setup-cli"]:
        _setup_cli()
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return _traced_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
