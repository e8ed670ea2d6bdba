"""CS decomposition of a unitary matrix in canonical-form shape.

For a unitary W of size (p+q) x (p+q) with |p - q| <= 1, computes corner
unitaries and cosine/sine diagonals such that

    W = blockdiag(u1, u2) @ core @ blockdiag(v1, v2)

where ``core`` carries diag(cos) / diag(sin) coupling blocks, with +S in the
upper right and -S in the lower left.  When p != q there is additionally one
structural unit entry at position min(p, q) (0-based) belonging to the larger
block: the last position of block 1 when p > q, the first of block 2 when
q > p.

The factors come from two SVDs, W11 = U diag(c) Vh and W21 = X diag(s) Yh
(Stewart 1982; Van Loan 1985).  By ascending sine, the first r angles take
v1's row and -u2's column from W21's SVD, with cos = sqrt(1 - s^2) and u1's
column W11 y / cos, which keeps tiny sines accurate; the others take v1's
row and u1's column from W11's SVD, with sin = sqrt(1 - c^2) and u2's
column -W21 y / sin.  r sits at the widest gap between consecutive sines
inside [1/2, sqrt(3)/2] (at 1/sqrt(2) if none lies there), so one SVD
reads a whole cluster of nearly equal angles.  The cosines come out
non-increasing with no sort: each side of r is monotone, and the widest
gap keeps the two cosines either side of r about 0.21 / (k + 1) or more
apart, far above roundoff in a unitary W.  W21's null vectors give the
structural unit.  u1, u2 and v1 are replaced by their polar factors,
and v2 is read off blockdiag(u1, u2)* W.  An exactly block-diagonal W
keeps u1 = u2 = I.  Last, one phase per angle is normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure, PartitionMismatch
from .linalg import as_complex_matrix, block_diag, require_unitary

__all__ = ["CsFactors", "cs_core", "cs_decompose", "cs_reconstruct"]


@dataclass(frozen=True, eq=False)
class CsFactors:
    """Corner unitaries and angle diagonals of one CS decomposition.

    ``u1``/``v1`` are p x p, ``u2``/``v2`` are q x q; ``cos`` and ``sin``
    have length min(p, q), entries in [0, 1] with cos non-increasing and
    cos[i]^2 + sin[i]^2 = 1.  ``core`` is built once, on first use, and
    is read-only.
    """

    p: int
    q: int
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @cached_property
    def core(self) -> np.ndarray:
        core = cs_core(self.p, self.q, self.cos, self.sin)
        core.flags.writeable = False
        return core


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


def _pivot_phases(u: np.ndarray) -> np.ndarray:
    """Unit phase of the largest-modulus entry of each column; 1 for a zero column."""
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return np.exp(1j * np.angle(pivot))


def _normalize_phases(u1, u2, v1, v2, cols2):
    """Make one entry per angle real positive, compensating across factors.

    Angle i couples u1 column i, v1 row i, u2 column cols2[i] and v2 row
    cols2[i]; a common phase on its (u1, u2) columns with the conjugate on
    its (v1, v2) rows leaves the product invariant.  The phase makes the
    largest-modulus entry of the u1 column real positive.  The structural
    unit gets the same treatment in its own block.
    """
    phase1, phase2 = _pivot_phases(u1), _pivot_phases(u2)
    phase2[cols2] = phase1[: len(cols2)]
    return u1 * phase1.conj(), u2 * phase2.conj(), v1 * phase1[:, None], v2 * phase2[:, None]


def _polar(a: np.ndarray) -> np.ndarray:
    """Nearest unitary to ``a``: the unitary factor of its polar decomposition."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _split(sin: np.ndarray) -> int:
    """Number of ascending sines to read from the SVD of W21.

    The split lies at the widest gap between consecutive sines, measured
    inside [1/2, sqrt(3)/2]; with no sine there it falls at 1/sqrt(2).
    """
    edges = np.clip(np.concatenate(([0.0], sin, [1.0])), 0.5, np.sqrt(0.75))
    return int(np.argmax(np.diff(edges)))


def _two_svd_factors(w: np.ndarray, p: int, q: int):
    """(u1, u2, v1, v2, cos, sin) from the SVDs of W11 and W21, angles by ascending sine."""
    k = min(p, q)
    w11, w21 = w[:p, :p], w[p:, :p]
    uc, c, vch = np.linalg.svd(w11)
    xs, s, ysh = np.linalg.svd(w21)
    # When p > q the leading singular value of W11 is the structural 1.
    c = np.clip(c[p - k :], 0.0, 1.0)
    s = np.clip(s[::-1], 0.0, 1.0)
    r = _split(s)
    cos = np.concatenate((np.sqrt(1.0 - s[:r] ** 2), c[r:]))
    sin = np.concatenate((s[:r], np.sqrt(1.0 - c[r:] ** 2)))
    y_small, y_rest = ysh[k - r : k][::-1], vch[p - k + r :]
    # Past index k, W21's singular vectors span its null spaces: the
    # structural unit, last in block 1 when p > q and first in block 2 when q > p.
    v1 = np.vstack((y_small, y_rest, ysh[k:]))
    u1 = np.hstack((w11 @ y_small.conj().T / cos[:r], uc[:, p - k + r :], w11 @ ysh[k:].conj().T))
    u2 = np.hstack((xs[:, k:], -xs[:, k - r : k][:, ::-1], -(w21 @ y_rest.conj().T) / sin[r:]))
    (u1, v1), u2 = _polar(np.stack((u1, v1))), _polar(u2)
    left_w2 = np.vstack((u1.conj().T @ w[:p, p:], u2.conj().T @ w[p:, p:]))
    v2 = _polar(cs_core(p, q, cos, sin)[:, p:].conj().T @ left_w2)
    return u1, u2, v1, v2, cos, sin


def cs_decompose(w, p: int, q: int) -> CsFactors:
    """Decompose a unitary W over the symmetric block partition (p, q).

    Raises PartitionMismatch when p + q does not match W or |p - q| > 1,
    NotUnitary when W's unitarity residual exceeds ``UNITARY_ABS`` and
    ConvergenceFailure when an SVD does not converge.
    """
    w = as_complex_matrix(w)
    if w.shape[0] != w.shape[1] or p + q != w.shape[0] or p < 1 or q < 1:
        raise PartitionMismatch(f"partition ({p}, {q}) does not fit a {w.shape} matrix")
    if abs(p - q) > 1:
        raise PartitionMismatch(f"|p - q| must be at most 1, got ({p}, {q})")
    require_unitary(w)

    k = min(p, q)
    if not (w[:p, p:].any() or w[p:, :p].any()):
        # Exactly block-diagonal: u1 = u2 = I, free of the SVDs' roundoff in I - K K*.
        u1, u2 = np.eye(p, dtype=complex), np.eye(q, dtype=complex)
        v1, v2 = w[:p, :p], w[p:, p:]
        cos, sin = np.ones(k), np.zeros(k)
    else:
        try:
            u1, u2, v1, v2, cos, sin = _two_svd_factors(w, p, q)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc

    cols2 = np.arange(k) + int(q > p)  # block 2 puts its structural unit first
    u1, u2, v1, v2 = _normalize_phases(u1, u2, v1, v2, cols2)
    return CsFactors(p=p, q=q, u1=u1, u2=u2, v1=v1, v2=v2, cos=cos, sin=sin)


def cs_reconstruct(factors: CsFactors) -> np.ndarray:
    """Multiply the factors back together; inverse of :func:`cs_decompose`."""
    left = block_diag(factors.u1, factors.u2)
    right = block_diag(factors.v1, factors.v2)
    return left @ factors.core @ right
