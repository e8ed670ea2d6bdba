"""Dense complex linear-algebra kernels shared by the whole library.

Everything operates on plain ``numpy`` arrays of dtype complex128.  The
functions here add the contracts the rest of the library relies on (the
fixed rank and unitarity cutoffs and the rules that read them, seeded Haar
sampling); the heavy lifting is delegated to LAPACK via numpy.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "unitarity_residual",
    "numerical_rank",
    "random_unitary",
    "haar_unitary",
    "row_space_angles",
]


# Singular-value cutoff for numerical rank: relative to sigma_max for A, B and
# (A : B), absolute for quantities of unit scale (sines, blocks of a unitary).
RANK_REL = 1e-10
UNITARY_ABS = 1e-10  # max absolute deviation of U*U from the identity

# From this size up, a values-only SVD runs faster on one OpenBLAS thread: half
# of its bidiagonal reduction is matrix-vector products too short to split.
_SERIAL_SVD_MIN = 64
_BLAS_THREADS_LOCK = threading.Lock()

_EPS = np.finfo(float).eps
# _row_rank's diagonal shift per unit of m^2 tr(G), and the least (normal) shift it uses.
_GRAM_SHIFT, _GRAM_SHIFT_MIN = 64 * _EPS, np.finfo(float).tiny
# A bound on the backward error of forming and factoring G, per unit of m^2 tr(G) (c0 in _row_rank).
_GRAM_ROUNDOFF = 8 * _EPS
# A W recovered from a pair with kappa = cond (A : B) errs by about eps kappa, so a block of it
# is cut at max(RANK_REL, _W_NOISE m kappa).  A certified pair has kappa <= (m^2 c')^-1/2,
# c' = _GRAM_SHIFT - _GRAM_ROUNDOFF, so its noise is at most _W_NOISE_CERTIFIED, about 8e-9.
_W_NOISE = 4 * _EPS
_W_NOISE_CERTIFIED = _W_NOISE / np.sqrt(_GRAM_SHIFT - _GRAM_ROUNDOFF)


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


def as_complex_matrix(a, finite: bool = True) -> np.ndarray:
    """Coerce to a 2-d complex128 array and, unless ``finite`` is False, reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if finite and not np.isfinite(m).all():
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
    return int(np.count_nonzero(sigma > RANK_REL * sigma[:1]))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None when there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:  # numpy linked against a system BLAS
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _svdvals(x: np.ndarray) -> np.ndarray:
    """Singular values of ``x``, or of each matrix in a stack, for a rank or an angle.

    From ``_SERIAL_SVD_MIN`` rows and columns up, and when numpy's OpenBLAS
    is found, the SVD runs with that library set to one thread; the caller's
    count is restored afterwards.  The count is process-global, so the lock
    keeps two callers from interleaving get, set and restore.  Without
    OpenBLAS, or below the size, this is the plain call.  The two may differ
    in the last bits of the values, as the threads sum in another order; a
    rank read off them moves only for a value within roundoff of its cutoff.
    """
    shape = x.shape  # indexed, not min(shape[-2:]): this path runs on every tiny pair
    if shape[-1] < _SERIAL_SVD_MIN or shape[-2] < _SERIAL_SVD_MIN or (blas := _openblas_threads()) is None:
        return np.linalg.svd(x, compute_uv=False)
    get, set_ = blas
    with _BLAS_THREADS_LOCK:
        before = get()
        set_(1)
        try:
            return np.linalg.svd(x, compute_uv=False)
        finally:
            set_(before)


def unit_rank(block: np.ndarray, noise=0.0) -> int:
    """Number of singular values of ``block`` above max(RANK_REL, noise).

    Blocks of a unitary have singular values of unit natural scale (the
    sines among them), so the cutoff is absolute; a relative one would
    count roundoff as rank when a block should be zero.  ``noise`` is the
    roundoff level of the block's entries (:func:`_w_noise`), or a callable
    that gives it at most ``_W_NOISE_CERTIFIED``: it is called only when a
    value lies in (RANK_REL, _W_NOISE_CERTIFIED], the one place where such a
    noise can move the rank.  From 64 rows and columns up the SVD runs on
    one OpenBLAS thread (see the README's performance notes).
    """
    sigma = _svdvals(block)
    rank = int(np.count_nonzero(sigma > RANK_REL))
    if callable(noise):
        # The values descend, so the least one counted is the only one that can lie in the band.
        noise = noise() if rank and sigma[rank - 1] <= _W_NOISE_CERTIFIED else 0.0
    return int(np.count_nonzero(sigma > noise)) if noise > RANK_REL else rank


def _w_noise(sigma: np.ndarray) -> float:
    """4 m eps kappa, the roundoff level of a W recovered from an m x 2m (A : B) with singular values ``sigma``.

    A subspace determined to an angle of eps kappa is the general bound
    (Wedin, BIT 12, 1972; Stewart and Sun, Matrix Perturbation Theory, 1990).
    """
    return float(_W_NOISE * len(sigma) * (sigma[0] / sigma[-1]))


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_REL * sigma_max``; 0 for the zero matrix.

    From 64 rows and columns up the SVD runs on one OpenBLAS thread (see the
    README's performance notes).
    """
    m = as_complex_matrix(m)
    return relative_rank(_svdvals(m))


def _row_rank(x: np.ndarray, gram: np.ndarray) -> tuple[int, np.ndarray | None]:
    """(``relative_rank(_svdvals(x))``, the values or None) for an m x k ``x``, m <= k, with no SVD when the rank is m.

    ``gram`` is a fresh C-contiguous G = c x x* for any c > 0, which the
    call overwrites.  A Cholesky of G - delta I, delta = 64 m^2 eps tr(G),
    that succeeds proves sigma_m / sigma_1 >= about 8 m sqrt(eps), far above
    ``RANK_REL``: forming and factoring G err backwards by at most
    c0 m^2 eps tr(G), c0 well below 64 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, Thms 10.3-10.5).  That holds for a G formed
    from x times rounded coefficients, as :class:`~bccanon.forms.BoundaryPair`
    forms it: the one rounding per coefficient adds a few units to c0,
    which ``_GRAM_ROUNDOFF`` takes as 8.  The values-only SVD of ``x`` runs
    when the factorization fails or delta is not a finite normal number
    (x near overflow or underflow), and its values are returned with the
    rank; on success the second item is None.
    """
    m = x.shape[0]
    diagonal = gram.reshape(-1)[:: m + 1]  # a view: gram is C-contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        shift = _GRAM_SHIFT * m * m * diagonal.real.sum()
    if _GRAM_SHIFT_MIN <= shift < np.inf:
        diagonal -= shift
        try:
            np.linalg.cholesky(gram)
            return m, None
        except np.linalg.LinAlgError:
            pass
    sigma = _svdvals(x)
    return relative_rank(sigma), sigma


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

    The orthonormal row bases are the Q factors of thin QRs of the conjugate
    transposes (Bjorck and Golub, Math. Comp. 27, 1973), so both matrices
    need full row rank.  The sines are the singular values of one basis
    projected off the other; they resolve angles down to machine precision,
    where arccos of the cosines bottoms out near sqrt(eps).  From 64 rows and
    columns up their SVD runs on one OpenBLAS thread.  The angles are all
    zero exactly when the matrices are row-equivalent.
    """
    q1 = np.linalg.qr(as_complex_matrix(m1).conj().T)[0]
    q2 = np.linalg.qr(as_complex_matrix(m2).conj().T)[0]
    sines = _svdvals(q2 - q1 @ (q1.conj().T @ q2))
    return np.sort(np.arcsin(np.clip(sines, -1.0, 1.0)))
