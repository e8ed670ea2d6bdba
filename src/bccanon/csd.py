"""CS decomposition of a unitary matrix in canonical-form shape.

For a unitary W of size (p+q) x (p+q) with |p - q| <= 1, computes corner
unitaries and cosine/sine diagonals such that

    W = blockdiag(u1, u2) @ core @ blockdiag(v1, v2)

where ``core`` carries diag(cos) / diag(sin) coupling blocks, with +S in the
upper right and -S in the lower left.  When p != q there is additionally one
structural unit entry at position min(p, q) (0-based) belonging to the larger
block: the last position of block 1 when p > q, the first of block 2 when
q > p.

The factorization itself is delegated to LAPACK's simultaneous-angle CSD
(scipy.linalg.cossin), which keeps tiny sines exact instead of suffering
the sqrt(1 - cos^2) cancellation near cos = 1.  The result is then brought
to the convention above: cosines sorted non-increasing, signs and the
structural-unit position fixed, and one phase per angle normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotUnitary, PartitionMismatch
from .linalg import DEFAULT_TOL, Tolerances, as_complex_matrix, block_diag, unitarity_residual

__all__ = ["CsFactors", "cs_core", "cs_decompose", "cs_reconstruct"]


@dataclass(frozen=True, eq=False)
class CsFactors:
    """Corner unitaries and angle diagonals of one CS decomposition.

    ``u1``/``v1`` are p x p, ``u2``/``v2`` are q x q; ``cos`` and ``sin``
    have length min(p, q), entries in [0, 1] with cos non-increasing and
    cos[i]^2 + sin[i]^2 = 1.
    """

    p: int
    q: int
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @property
    def core(self) -> np.ndarray:
        return cs_core(self.p, self.q, self.cos, self.sin)


def cs_core(p: int, q: int, cos, sin) -> np.ndarray:
    """Central (p+q) x (p+q) matrix of the decomposition.

    For p == q this is [C S; -S C]; for |p - q| == 1 the structural unit
    entry sits at index min(p, q) and the angle pairs straddle it.
    """
    cos = np.asarray(cos, dtype=float)
    sin = np.asarray(sin, dtype=float)
    k = min(p, q)
    if abs(p - q) > 1 or p < 1 or q < 1:
        raise PartitionMismatch(f"unsupported partition ({p}, {q})")
    if cos.shape != (k,) or sin.shape != (k,):
        raise PartitionMismatch(f"need {k} angles for partition ({p}, {q})")
    m = p + q
    core = np.zeros((m, m), dtype=complex)
    # Each -S block is a negated copy of its +S block, so its zero entries
    # are -0.0.  The core and middle factors are column slices of this
    # matrix and serialize those sign bits, so keep them.
    if p == q:
        core[:k, :k] = np.diag(cos)
        core[:k, k:] = np.diag(sin)
        core[k:, :k] = -core[:k, k:]
        core[k:, k:] = np.diag(cos)
    else:
        core[k, k] = 1.0
        for i in range(k):
            core[i, i] = cos[i]
            core[i, k + 1 + i] = sin[i]
            core[k + 1 + i, k + 1 + i] = cos[i]
        core[p:, :p] = -core[:p, p:].conj().T
    return core


def _angle_couplings(p: int, q: int):
    """Column index of u1/u2 coupled to angle i, plus the structural index."""
    k = min(p, q)
    if p > q:
        return list(range(k)), list(range(k)), ("u1", k)
    if q > p:
        return list(range(k)), list(range(1, k + 1)), ("u2", 0)
    return list(range(k)), list(range(k)), None


def _normalize_phases(u1, u2, v1, v2, p, q):
    """Make one entry per angle real positive, compensating across factors.

    For angle i the four factors couple u1 column c1[i], v1 row c1[i],
    u2 column c2[i], v2 row c2[i]; a common phase on (u1, u2) columns with
    its conjugate on (v1, v2) rows leaves the product invariant.  The phase
    is chosen so the largest-modulus entry of the u1 column becomes real
    positive (u2 column for the structural index when it lives in block 2).
    """
    cols1, cols2, structural = _angle_couplings(p, q)
    for i, j in zip(cols1, cols2):
        pivot = u1[np.argmax(np.abs(u1[:, i])), i]
        if pivot == 0:
            continue
        phase = pivot / abs(pivot)
        u1[:, i] *= np.conj(phase)
        u2[:, j] *= np.conj(phase)
        v1[i, :] *= phase
        v2[j, :] *= phase
    if structural is not None:
        which, idx = structural
        u, v = (u1, v1) if which == "u1" else (u2, v2)
        pivot = u[np.argmax(np.abs(u[:, idx])), idx]
        if pivot != 0:
            phase = pivot / abs(pivot)
            u[:, idx] *= np.conj(phase)
            v[idx, :] *= phase
    return u1, u2, v1, v2


def cs_decompose(w, p: int, q: int, tol: Tolerances = DEFAULT_TOL) -> CsFactors:
    """Decompose a unitary W over the symmetric block partition (p, q).

    Raises PartitionMismatch when p + q does not match W or |p - q| > 1,
    and NotUnitary when W fails the unitarity residual check.
    """
    w = as_complex_matrix(w)
    m = w.shape[0]
    if w.shape[0] != w.shape[1] or p + q != m or p < 1 or q < 1:
        raise PartitionMismatch(f"partition ({p}, {q}) does not fit a {w.shape} matrix")
    if abs(p - q) > 1:
        raise PartitionMismatch(f"|p - q| must be at most 1, got ({p}, {q})")
    residual = unitarity_residual(w)
    if residual > tol.unitary_abs:
        raise NotUnitary(f"unitarity residual {residual:.3e} exceeds {tol.unitary_abs:.3e}")

    import scipy.linalg  # here only: the rest of bccanon runs on numpy alone

    try:
        # scipy's (p, q) arguments are the row/column counts of the W11
        # block; our partition is symmetric, hence q=p here.
        (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(w, p=p, q=p, separate=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc

    cos = np.clip(np.cos(theta), 0.0, 1.0)
    sin = np.clip(np.sin(theta), 0.0, 1.0)
    k = min(p, q)

    u1 = np.array(u1, dtype=complex)
    u2 = np.array(u2, dtype=complex)
    v1 = np.array(v1h, dtype=complex)
    v2 = np.array(v2h, dtype=complex)

    if p > q:
        # LAPACK puts the structural unit first in block 1; move it last.
        perm = list(range(1, p)) + [0]
        u1 = u1[:, perm]
        v1 = v1[perm, :]
    # Flip LAPACK's sign convention (-S upper right) to +S upper right.
    u2 = -u2
    v2 = -v2

    # LAPACK returns ascending theta (non-increasing cos); enforce anyway.
    order = np.argsort(-cos, kind="stable")
    if not np.array_equal(order, np.arange(k)):
        cos, sin = cos[order], sin[order]
        cols1, cols2, _ = _angle_couplings(p, q)
        c1 = np.asarray(cols1)[order]
        c2 = np.asarray(cols2)[order]
        u1[:, cols1], v1[cols1, :] = u1[:, c1], v1[c1, :]
        u2[:, cols2], v2[cols2, :] = u2[:, c2], v2[c2, :]

    u1, u2, v1, v2 = _normalize_phases(u1, u2, v1, v2, p, q)
    return CsFactors(p=p, q=q, u1=u1, u2=u2, v1=v1, v2=v2, cos=cos, sin=sin)


def cs_reconstruct(factors: CsFactors) -> np.ndarray:
    """Multiply the factors back together; inverse of :func:`cs_decompose`."""
    left = block_diag(factors.u1, factors.u2)
    right = block_diag(factors.v1, factors.v2)
    return left @ factors.core @ right
