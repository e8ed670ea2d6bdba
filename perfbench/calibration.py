"""A fixed reference kernel that tracks the host's interpreter speed.

On a shared virtual machine the speed of interpreter-bound code switches
between levels up to 2x apart, many times a minute, while LAPACK-bound code
barely moves.  The in-process, interpreter-bound workload (tiny-stream) times
this kernel between rounds and scales each round by
``REFERENCE_NOMINAL_S / measured``: a figure in seconds at the nominal speed,
at which the kernel takes ``REFERENCE_NOMINAL_S``.  The kernel mixes small
numpy calls, object construction, function calls and dict updates with one
small SVD, like a tiny-pair operation.  Of the kernels tried, it tracked that
operation best.  It uses no bccanon code, so a change to the library cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on a quiet 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31); it only sets the scale of the figures.
REFERENCE_NOMINAL_S = 1.0e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12))


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _accumulate(point: _Point, totals: dict) -> int:
    return totals.get(point.key, 0) + point.value


def reference_s(reps: int = 1) -> float:
    """Mean seconds of ``reps`` runs of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(reps):
        totals = {}
        for _ in range(20):
            wide = np.hstack([_SMALL, _SMALL])
            gram = wide @ wide.conj().T
            np.linalg.norm(gram)
            np.count_nonzero(np.abs(gram) > 1.0)
            for j in range(60):
                point = _Point(j % 17, j)
                totals[point.key] = _accumulate(point, totals)
        np.linalg.svd(_SMALL)
    return (time.perf_counter() - t0) / reps
