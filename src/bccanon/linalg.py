"""Dense complex linear-algebra kernels shared by the whole library.

Everything operates on plain ``numpy`` arrays of dtype complex128.  The
functions here add the contracts the rest of the library relies on (the
fixed rank and unitarity cutoffs and the rules that read them, seeded Haar
sampling); the heavy lifting is delegated to LAPACK via numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary

__all__ = [
    "RANK_REL",
    "UNITARY_ABS",
    "Tolerances",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "block_diag",
    "unitarity_residual",
    "require_unitary",
    "numerical_rank",
    "relative_rank",
    "unit_rank",
    "random_unitary",
    "haar_unitary",
    "row_space_angles",
]


# Singular-value cutoff for numerical rank: relative to sigma_max for A, B and
# (A : B), absolute for quantities of unit scale (sines, blocks of a unitary).
RANK_REL = 1e-10
UNITARY_ABS = 1e-10  # max absolute deviation of U*U from the identity


@dataclass(frozen=True)
class Tolerances:
    """The one settable threshold; the rank and unitarity cutoffs are RANK_REL and UNITARY_ABS.

    residual_abs  max Frobenius norm of A C A* - B C B* in the
                  self-adjointness check
    """

    residual_abs: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.residual_abs < 1.0):
            raise ValueError(f"residual_abs must lie strictly between 0 and 1, got {self.residual_abs!r}")


DEFAULT_TOL = Tolerances()


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or infinite entries")
    return m


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of 2-d blocks, zeros elsewhere."""
    out = np.zeros(
        (sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
        dtype=np.result_type(*blocks),
    )
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def unitarity_residual(u) -> float:
    """Max-norm deviation of U*U from the identity; 0 for exactly unitary U."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"unitarity residual needs a square matrix, got {u.shape}")
    gram = u.conj().T @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[0]))))


def require_unitary(u) -> None:
    """Raise NotUnitary when the unitarity residual of ``u`` exceeds ``UNITARY_ABS``."""
    residual = unitarity_residual(u)
    if residual > UNITARY_ABS:
        raise NotUnitary(f"unitarity residual {residual:.3e} exceeds {UNITARY_ABS:.3e}")


def relative_rank(sigma: np.ndarray) -> int:
    """Number of descending singular values above ``RANK_REL * sigma_max``; 0 when all vanish."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_REL * sigma[0]))


def unit_rank(block: np.ndarray) -> int:
    """Number of singular values of ``block`` above ``RANK_REL``.

    Blocks of a unitary have singular values of unit natural scale (the
    sines among them), so the cutoff is absolute; a relative one would
    count roundoff as rank when a block should be zero.
    """
    return int(np.count_nonzero(np.linalg.svd(block, compute_uv=False) > RANK_REL))


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_REL * sigma_max``; 0 for the zero matrix."""
    m = as_complex_matrix(m)
    if m.size == 0:
        return 0
    return relative_rank(np.linalg.svd(m, compute_uv=False))


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary drawn from an explicit generator.

    QR of a complex Gaussian matrix, with the triangular factor's diagonal
    phases absorbed into Q so the distribution is genuinely Haar.
    """
    if m < 1:
        raise ValueError(f"matrix size must be positive, got {m}")
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unitary(m: int, seed: int) -> np.ndarray:
    """Seeded Haar-random unitary; bit-identical across calls with the same seed."""
    return haar_unitary(m, np.random.default_rng(seed))


def row_space_angles(m1, m2) -> np.ndarray:
    """Principal angles (radians, ascending) between the row spaces of two matrices.

    Computed through the sines (singular values of the residual of one
    orthonormal row basis projected off the other), which resolves angles
    all the way down to machine precision where the arccos-of-cosines route
    bottoms out near sqrt(eps).  The angle vector is all zeros exactly when
    the matrices are row-equivalent.
    """
    m1 = as_complex_matrix(m1)
    m2 = as_complex_matrix(m2)
    _, _, q1 = np.linalg.svd(m1, full_matrices=False)
    _, _, q2 = np.linalg.svd(m2, full_matrices=False)
    residual = q2 - (q2 @ q1.conj().T) @ q1
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.sort(np.arcsin(np.clip(sines, -1.0, 1.0)))
