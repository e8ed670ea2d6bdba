#!/usr/bin/env python3
"""SHA-256 digest of every byte the CLI prints and writes, for comparing commits.

Usage: python scripts/output_digest.py INPUT_DIR OUT.json

On first use INPUT_DIR is filled with pairs from ``bccanon generate`` at
every (order, unit-cosine count) of ``GRID``, a row-mixed copy G (A, B) of
each grid pair with ``MIXED_UNIT_COSINES`` unit cosines, scaled copies s
(A, B) of those pairs at the orders ``SCALED_ORDERS`` and each scale of
``SCALES`` (1e-170, 1e-315, 1e-6 and 1e2), copies with a repeated row at
``REPEATED_ROW_ORDERS``, row-mixed copies with cond G = 1e8 at
``ILL_MIXED_ORDERS`` and with cond G = 1e4 at ``STEPPED_MIXED_ORDERS``, and
the ``dirichlet`` and ``w_identity`` fixtures;
later runs reuse whatever INPUT_DIR holds, so two commits digest the same
inputs.  For each input the script runs ``check``, ``classify`` and
``canon``, on each mixed copy also with ``--tol TIGHT_TOL``, which fails
some of them; it runs ``generate`` at each grid point and with each
argument list of ``GENERATE_ERRORS``, which must fail with a usage error
(one passes ``--tol``, which only the pair commands take), ``check`` on
each malformed or non-square file of ``PARSE_ERRORS`` (raw bytes, not all
of them UTF-8), which must fail with an input error, and ``selftest`` with
each argument list of ``SELFTESTS``.
Every run is made in ``--format json`` and ``text``.  OUT.json maps each run
to its exit code, the SHA-256 of its stdout and the SHA-256 of every file it
wrote.

The CLI runs as ``python -m bccanon.cli`` in a subprocess, so PYTHONPATH
picks the commit under test; see the README for a two-commit comparison.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from bccanon.linalg import haar_unitary
from bccanon.matio import parse_matrix_file, write_matrix_file

ORDERS = (5, 6, 19, 20, 21, 64, 65)
GRID = tuple((m, k) for m in ORDERS for k in (None, 0, 2))
# The grid pairs with this many unit cosines also get a row-mixed copy, so the
# guard covers the recovery of W from a pair that is not in normalized form.
MIXED_UNIT_COSINES = 2
# At these orders those pairs also get copies s (A, B) at each scale, by label:
# the guard then covers pairs off unit scale that the Gram bound still accepts.
SCALED_ORDERS = (5, 6, 64, 65)
# At 1e-170 the squares of the entries underflow, so a norm of (A : B) taken
# at that scale reads 0.  At 1e-315 every entry is subnormal, and the pair
# commands refuse the pair as input (exit 2).
SCALES = {"1e-170": 1e-170, "1e-315": 1e-315, "1e-6": 1e-6, "1e2": 1e2}
# At these orders those pairs also get a copy whose row 0 of (A : B) repeats row 1,
# so rank (A : B) = m - 1: the guard covers the check's SVD fallback.
REPEATED_ROW_ORDERS = (5, 64)
# At these orders those pairs also get a row-mixed copy with cond G = 1e8: full
# rank, but with a margin below the shift of the check's Cholesky certificate,
# so the check falls back to the SVD there too.
ILL_MIXED_ORDERS = (5,)
# At these orders those pairs also get a row-mixed copy with cond G = 1e4: X = P~^-1 R~
# misses unitarity by more than roundoff, so the recovery takes exactly one Newton-Schulz step.
STEPPED_MIXED_ORDERS = (5, 64)
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "fixtures")
FORMATS = ("json", "text")
# generate runs that end in a usage error (exit 2), by name.
GENERATE_ERRORS = {
    "order-1": ["--order", "1", "--seed", "1"],
    "target-out-of-range": ["--order", "5", "--seed", "1", "--unit-cosines", "9"],
    "negative-seed": ["--order", "5", "--seed", "-1"],
    "huge-order": ["--order", "100000000", "--seed", "1"],
    # generate takes no --tol: its pairs are self-adjoint by construction.
    "tol": ["--order", "9", "--seed", "3", "--unit-cosines", "2", "--tol", "1e-16"],
}
# Malformed or non-square matrix files that check must reject with an input error (exit 2), by name.
PARSE_ERRORS = {
    "huge-rows": b'{"rows": 1e400, "cols": 1, "data": [[[1, 0]]]}',
    "huge-integer-entry": b'{"rows": 1, "cols": 1, "data": [[[1%s, 0]]]}' % (b"0" * 400),
    "ragged-row": b'{"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, 0]]]}',
    "non-numeric-entry": b'{"rows": 1, "cols": 1, "data": [[["one", 0]]]}',
    # The next three hold I_2 but for one field that is not a JSON number of the
    # right kind; a parser that coerces it reads a self-adjoint pair.
    "fractional-rows": b'{"rows": 2.5, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "string-cols": b'{"rows": 2, "cols": "2", "data": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "bool-and-string-entry": b'{"rows": 2, "cols": 2, "data": [[[true, "0"], [0, 0]], [[0, 0], [1, 0]]]}',
    "not-utf8": b'\xff{"rows": 1, "cols": 1, "data": [[[1, 0]]]}',
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "not-an-object": b"[1, 2]",
    "zero-rows": b'{"rows": 0, "cols": 2, "data": []}',
    # A well-formed 1 x 2 file: check rejects the pair, which must be square.
    "non-square": b'{"rows": 1, "cols": 2, "data": [[[1, 0], [0, 0]]]}',
}
# selftest argument lists, by name.
SELFTESTS = {
    "default": [],
    "orders-3,4,5-trials-3": ["--orders", "3,4,5", "--trials", "3"],
    # The even order 64 is built too, beside the even orders 2, 4 and 6 that every run builds.
    "orders-2,64-trials-1": ["--orders", "2,64", "--trials", "1"],
}
# A Gram residual bound that the mixed copies straddle: some pass it, some do not.
TIGHT_TOL = "1e-14"


def _generate_argv(m, k, out):
    argv = ["generate", "--order", str(m), "--seed", str(m), "--out", out]
    return argv if k is None else argv + ["--unit-cosines", str(k)]


def _name(m, k):
    return f"m{m}-k{'none' if k is None else k}"


def _cli(argv, cwd):
    # The CLI runs inside INPUT_DIR or a scratch directory: make PYTHONPATH absolute first.
    path = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "bccanon.cli", *argv], cwd=cwd, env=env, capture_output=True, check=False
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_copy(input_dir, name, source, transform):
    """Write ``name``: ``transform`` applied to A and to B of the pair in ``source``."""
    os.makedirs(os.path.join(input_dir, name))
    for side in "AB":
        matrix = parse_matrix_file(os.path.join(input_dir, source, f"{side}.json"))
        write_matrix_file(os.path.join(input_dir, name, f"{side}.json"), transform(matrix))


def _write_mixed(input_dir, m, source):
    """Write ``mixed-m{m}``: G (A, B) of the pair in ``source``, G seeded by m with singular values in [0.5, 2]."""
    rng = np.random.default_rng(m)
    g = haar_unitary(m, rng) @ np.diag(rng.uniform(0.5, 2.0, m)) @ haar_unitary(m, rng)
    _write_copy(input_dir, f"mixed-m{m}", source, lambda matrix: g @ matrix)


def _write_conditioned_mixed(input_dir, prefix, m, source, digits):
    """Write ``{prefix}-m{m}``: G (A, B) of the pair in ``source``, G seeded by (m, digits) with cond G = 10**digits."""
    rng = np.random.default_rng([m, digits])
    g = (haar_unitary(m, rng) * np.logspace(0, -digits, m)) @ haar_unitary(m, rng)
    _write_copy(input_dir, f"{prefix}-m{m}", source, lambda matrix: g @ matrix)


def make_inputs(input_dir, grid=GRID):
    """Fill ``input_dir`` with one A.json/B.json directory per input, unless it has them."""
    os.makedirs(input_dir, exist_ok=True)
    if os.listdir(input_dir):
        return
    for m, k in grid:
        result = _cli(_generate_argv(m, k, _name(m, k)), input_dir)
        if result.returncode != 0:
            raise RuntimeError(f"generate {_name(m, k)} failed: {result.stdout!r}")
        if k == MIXED_UNIT_COSINES:
            _write_mixed(input_dir, m, _name(m, k))
            for label, scale in SCALES.items() if m in SCALED_ORDERS else ():
                _write_copy(input_dir, f"scaled-m{m}-s{label}", _name(m, k), lambda matrix: scale * matrix)
            if m in REPEATED_ROW_ORDERS:
                _write_copy(input_dir, f"repeated-row-m{m}", _name(m, k), lambda matrix: matrix[[1, *range(1, m)]])
            if m in ILL_MIXED_ORDERS:
                _write_conditioned_mixed(input_dir, "ill-mixed", m, _name(m, k), 8)
            if m in STEPPED_MIXED_ORDERS:
                _write_conditioned_mixed(input_dir, "stepped-mixed", m, _name(m, k), 4)
    for stem in ("dirichlet", "w_identity"):
        os.makedirs(os.path.join(input_dir, stem))
        for side in "AB":
            shutil.copyfile(os.path.join(FIXTURES, f"{stem}_{side}.json"), os.path.join(input_dir, stem, f"{side}.json"))


def _record(result, out_dir):
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                files[name] = _sha(handle.read())
    return {"exit": result.returncode, "stdout": _sha(result.stdout), "files": files}


def digest(input_dir, grid=GRID):
    """{run name: {"exit", "stdout", "files"}} over every input and grid point."""
    make_inputs(input_dir, grid)
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for index, (m, k) in enumerate(grid):
            for fmt in FORMATS:
                work = os.path.join(scratch, f"generate{index}{fmt}")
                os.makedirs(work)
                # A relative --out keeps the paths the report prints the same on every machine.
                result = _cli(_generate_argv(m, k, "out") + ["--format", fmt], work)
                runs[f"generate {_name(m, k)} {fmt}"] = _record(result, os.path.join(work, "out"))
        for name, argv in GENERATE_ERRORS.items():
            for fmt in FORMATS:
                work = os.path.join(scratch, f"generate-{name}-{fmt}")
                os.makedirs(work)
                result = _cli(["generate", *argv, "--out", "out", "--format", fmt], work)
                runs[f"generate {name} {fmt}"] = _record(result, os.path.join(work, "out"))
        for name, content in PARSE_ERRORS.items():
            with open(os.path.join(scratch, f"{name}.json"), "wb") as handle:
                handle.write(content)
            for fmt in FORMATS:
                result = _cli(["check", f"{name}.json", f"{name}.json", "--format", fmt], scratch)
                runs[f"check {name} {fmt}"] = _record(result, os.path.join(scratch, f"check-{name}-{fmt}"))
        for name, argv in SELFTESTS.items():
            for fmt in FORMATS:
                result = _cli(["selftest", *argv, "--format", fmt], scratch)
                runs[f"selftest {name} {fmt}"] = _record(result, os.path.join(scratch, f"selftest-{name}-{fmt}"))
        for name in sorted(os.listdir(input_dir)):
            pair = [os.path.join(name, "A.json"), os.path.join(name, "B.json")]
            tols = ([], ["--tol", TIGHT_TOL]) if name.startswith("mixed-") else ([],)
            for command in ("check", "classify", "canon"):
                for tol in tols:
                    label = " ".join([name, *tol])
                    for fmt in FORMATS:
                        out_dir = os.path.join(scratch, f"{command}-{label}-{fmt}".replace(" ", "_"))
                        extra = ["--out", out_dir] if command == "canon" else []
                        result = _cli([command, *pair, *extra, *tol, "--format", fmt], input_dir)
                        runs[f"{command} {label} {fmt}"] = _record(result, out_dir)
    return runs


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    input_dir, out_path = argv
    runs = digest(os.path.abspath(input_dir))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    files = sum(len(r["files"]) for r in runs.values())
    failed = sum(r["exit"] != 0 for r in runs.values())
    print(f"{len(runs)} runs ({failed} with a non-zero exit), {files} files -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
