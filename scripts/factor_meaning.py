#!/usr/bin/env python3
"""Check the factors ``canon`` writes by what they mean, not by their bytes.

Usage: python scripts/factor_meaning.py INPUT_DIR

INPUT_DIR holds one A.json/B.json directory per input, as
``scripts/output_digest.py`` fills it.  For each input the script runs
``canon --format json`` (``python -m bccanon.cli``, so PYTHONPATH picks the
commit under test) and, when it exits 0, reads the written factors back and
prints the worst of each of four figures:

* angles: the written cosines and sines against those of
  ``scipy.linalg.cossin`` of the written W;
* cs: W against its CS reconstruction from the written factors;
* factors: (1/sqrt 2) Q1 core Q2 against ``construct_from_W(W)`` at odd order,
  U middle right against (A : B) at even order, relative to max|(A : B)|;
* unitary: max|Q*Q - I| of every written unitary Q; Q2, Q3 and Q4 are
  sqrt 2 times one (Q4 Q4* = 2I, and Q2 and Q3 are tall).

Two commits whose ``canon`` bytes differ only at roundoff both pass.  The
exit code is 1 when an angle misses by more than ``ANGLE_TOL`` (the bound of
``tests/test_csd.py``) or a written unitary by more than ``UNITARY_TOL``.
"""

import json
import os
import sys
import tempfile

import numpy as np
from scipy.linalg import block_diag, cossin

from bccanon import OrderSpec, construct_from_W, cs_core
from bccanon.matio import parse_matrix_file

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from output_digest import _cli  # noqa: E402

ANGLE_TOL = 2e-14
UNITARY_TOL = 1e-12
FIGURES = ("angles", "cs", "factors", "unitary")
# The written factors that are unitary times a scale, by order parity: {name: scale}.
UNITARIES = {
    True: {"W": 1.0, "Q1": 1.0, "Q2": np.sqrt(2.0), "Q3": np.sqrt(2.0), "Q4": np.sqrt(2.0)},
    False: dict.fromkeys(("W", "Z", "U1", "U2", "V1", "V2"), 1.0),
}


def canon(input_dir, name, out_dir):
    """Run ``canon --format json`` on the pair ``name`` of ``input_dir``, writing to ``out_dir``; the exit code."""
    pair = [os.path.join(name, f"{side}.json") for side in "AB"]
    return _cli(["canon", *pair, "--out", out_dir, "--format", "json"], input_dir).returncode


def _orthonormality(q):
    """max|Q*Q - I|: the unitarity residual of a square Q, and of the columns of a tall one."""
    return np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])))


def meaning(factor_dir, ab):
    """{figure: worst value} of the factors in ``factor_dir``, written by ``canon`` for the pair (A : B)."""
    f = {name[:-5]: parse_matrix_file(os.path.join(factor_dir, name))
         for name in os.listdir(factor_dir) if name != "manifest.json"}
    w = f["W"]
    spec = OrderSpec(w.shape[0])
    p, q = spec.csd_partition
    cos, sin = f["C_diag"][0].real, f["S_diag"][0].real
    _, theta, _ = cossin(w, p=p, q=p, separate=True)
    angles = max(np.max(np.abs(np.sort(cos) - np.sort(np.cos(theta))), initial=0.0),
                 np.max(np.abs(np.sort(sin) - np.sort(np.sin(theta))), initial=0.0))
    if spec.is_odd_order:
        left = f["Q1"]
        # Q2 Q3* / 2 = blockdiag(v1, ..., v2) times a diagonal projector that keeps the columns of v1 and v2.
        right = f["Q2"] @ f["Q3"].conj().T / 2.0
        v1, v2 = right[:p, :p], right[-q:, -q:]
        product = f["Q1"] @ f["core"] @ f["Q2"] / np.sqrt(2.0)
        target = construct_from_W(w, spec).stacked()
    else:
        left, v1, v2 = block_diag(f["U1"], f["U2"]), f["V1"], f["V2"]
        product = f["U"] @ f["middle"] @ block_diag(f["V1"], f["U1"].conj().T, f["U2"].conj().T, f["V2"]) @ f["Z"]
        target = ab
    cs = np.max(np.abs(left @ cs_core(p, q, cos, sin) @ block_diag(v1, v2) - w))
    factors = np.max(np.abs(product - target)) / np.max(np.abs(target))
    unitary = max(_orthonormality(f[name] / scale) for name, scale in UNITARIES[spec.is_odd_order].items())
    return {"angles": float(angles), "cs": float(cs), "factors": float(factors), "unitary": float(unitary)}


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    input_dir = os.path.abspath(argv[0])
    worst = dict.fromkeys(FIGURES, 0.0)
    checked = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(os.listdir(input_dir)):
            out_dir = os.path.join(scratch, name)
            code = canon(input_dir, name, out_dir)
            if code != 0:
                print(f"{name}: exit {code}, no factors")
                continue
            ab = np.hstack([parse_matrix_file(os.path.join(input_dir, name, f"{side}.json")) for side in "AB"])
            figures = meaning(out_dir, ab)
            print(f"{name}: " + json.dumps(figures))
            worst = {key: max(worst[key], figures[key]) for key in FIGURES}
            checked += 1
    print(f"worst of {checked} factored inputs: " + json.dumps(worst))
    return 1 if worst["angles"] > ANGLE_TOL or worst["unitary"] > UNITARY_TOL else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
