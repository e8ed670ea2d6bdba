"""Fixed structural matrices underlying the canonical factorizations.

This module builds, in exact arithmetic up to 1/sqrt(2) factors:

* the signed antidiagonal symplectic matrices ``C_m``,
* the explicit unitary eigenbasis ``V`` that splits the two eigenspaces of
  the structure matrix, for odd order m = 2n+1 and even order m = 2n, as
  a column permutation of the conjugate transpose of ``Q4`` or ``Z``, with
  the odd layout read from ``OrderSpec.csd_partition``,
* the column transform ``Q4`` appearing in the canonical factorization,
* the fixed right factor ``Z`` of the even-order (m = 2n) canonical form.

All index formulas are stated 1-based (matching the antidiagonal
definition) and converted to 0-based storage internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import UnsupportedOrder
from .linalg import block_diag

__all__ = [
    "OrderSpec",
    "EigenBasis",
    "symplectic_matrix",
    "eigenbasis",
    "q4_matrix",
    "even_order_Z",
]


# From this order up, EigenBasis._scaled_product gathers columns in place of a dense product.
_GATHER_MIN = 16


@dataclass(frozen=True)
class OrderSpec:
    """Matrix order m; n = m // 2 and the CS partition follow from it."""

    m: int

    def __post_init__(self):
        least = 2 + self.m % 2
        if self.m < least:
            raise UnsupportedOrder(f"{'odd' if self.m % 2 else 'even'} order must be at least {least}, got {self.m}")

    @classmethod
    def from_order(cls, m: int) -> "OrderSpec":
        """Build the spec for a given matrix size (odd m >= 3 or even m >= 2)."""
        return cls(m)

    @property
    def n(self) -> int:
        return self.m // 2

    @property
    def is_odd_order(self) -> bool:
        return self.m % 2 == 1

    @property
    def csd_partition(self) -> tuple[int, int]:
        """CS-decomposition block sizes (p, q) used by the canonical form.

        (n, n) at even order; at odd order the block with n+1 rows comes
        first for odd n and second for even n.
        """
        n = self.n
        if self.m % 2 == 0:
            return n, n
        return (n + 1, n) if n % 2 else (n, n + 1)


@lru_cache(maxsize=16)
def symplectic_matrix(m: int) -> np.ndarray:
    """Signed antidiagonal matrix with entry (-1)^r at (r, m+1-r), 1-based.

    An involution (C^2 = I) for odd m and a skew involution (C^2 = -I)
    for even m.  Cached per size and read-only.
    """
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    c = np.zeros((m, m), dtype=complex)
    for i in range(m):
        c[i, m - 1 - i] = (-1.0) ** (i + 1)
    c.flags.writeable = False
    return c


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Unitary 2m x 2m V whose column halves span two opposite eigenspaces.

    Odd order: ``(C_m (+) -C_m) V = V (-I_m (+) I_m)``, the first m columns
    for eigenvalue -1, the last m for +1, entries 0, +-1/sqrt(2) or 1.
    Even order: the halves are the two eigenspaces of the Hermitian
    involution ``i C_m (+) -i C_m``, entries 0 or +-1/sqrt(2) and
    +-i/sqrt(2).  Every self-adjoint pair is row equivalent to
    ``(I : W) V*`` for exactly one unitary W.  V is read-only.

    Each column has at most two nonzero entries.  sqrt(2) V is stored a
    second time with its exact coefficients, +-1 and +-i, or sqrt(2) alone
    in an odd order's unit column, as two (row, coefficient) pairs per
    column, and below order ``_GATHER_MIN`` also dense (else None);
    :meth:`_scaled_product` applies it.
    """

    V: np.ndarray
    _exact: np.ndarray | None = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)
    _coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = self.V
        v.flags.writeable = False
        scaled = np.sqrt(2.0) * v
        # sqrt(2) times a rounded 1/sqrt(2) is +-1 (+-i) only to roundoff: round it there.
        exact = np.where(np.abs(v) == 1.0, scaled, np.round(scaled))
        nonzero = v != 0
        columns = np.arange(v.shape[1])
        first = np.argmax(nonzero, axis=0)
        last = v.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
        rows = np.array([first, last])
        coefficients = np.array([exact[first, columns], np.where(last > first, exact[last, columns], 0.0)])
        for value in (exact, rows, coefficients):
            value.flags.writeable = False
        object.__setattr__(self, "_exact", exact if v.shape[0] < 2 * _GATHER_MIN else None)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_coefficients", coefficients)

    def _scaled_product(self, x: np.ndarray) -> np.ndarray:
        """``x @ (sqrt(2) V)`` for an x with 2m columns, with one rounding per entry.

        Each entry sums two columns of x times exact coefficients, so a
        dense product with the exact coefficients gives the same values:
        it is taken below order ``_GATHER_MIN``, where it costs fewer numpy
        calls.  From there up the columns are gathered, O(x.size) work in
        place of a 4 m^3 product, with one m x 2m temporary.
        """
        if self._exact is not None:
            return x @ self._exact
        out = x[:, self._rows[0]]
        out *= self._coefficients[0]
        second = x[:, self._rows[1]]
        second *= self._coefficients[1]
        out += second
        return out


@lru_cache(maxsize=8)
def eigenbasis(spec: OrderSpec) -> EigenBasis:
    """Explicit diagonalizing eigenbasis of either parity.

    V is a column permutation of R*, with R the order's fixed right factor.
    Odd order m = 2n+1: R = Q4, and each diagonal block of Q4* / sqrt(2) is
    ``[plus | unit | minus]``; V takes ``[minus_top, unit, plus_bottom,
    plus_top, other unit, minus_bottom]``, so the -1 eigenvectors come
    first.  The first unit is the bottom copy's when ``spec.csd_partition``
    = (p, q) has p > q and the top copy's when q > p.  Even order m = 2n:
    R = Z, and V takes the column blocks of Z* in the order (2, 3, 1, 4);
    which sign of ``i C_2n (+) -i C_2n`` the first half carries flips with
    the parity of n, and is immaterial to the recovery built on the basis.
    Cached per order; ``V`` is read-only.
    """
    n, m = spec.n, spec.m
    if spec.is_odd_order:
        p, q = spec.csd_partition
        first, second = (m + n, n) if p > q else (n, m + n)
        right = q4_matrix(spec) / np.sqrt(2.0)
        cols = np.r_[n + 1 : m, first, m : m + n, :n, second, m + n + 1 : 2 * m]
    else:
        right = even_order_Z(n)
        cols = np.r_[n : 3 * n, :n, 3 * n : 4 * n]
    return EigenBasis(V=right.conj().T[:, cols])


def q4_matrix(spec: OrderSpec) -> np.ndarray:
    """Block-diagonal column transform: two copies of an m x m block.

    Each block is ``[I_n 0 (-1)^(n+1) C_n*; 0 sqrt(2) 0; I_n 0 (-1)^n C_n*]``
    and has pairwise orthogonal rows of squared norm 2, so Q4 Q4* = 2 I.
    """
    if not spec.is_odd_order:
        raise UnsupportedOrder("q4_matrix is defined for odd order only")
    n, m = spec.n, spec.m
    cns = symplectic_matrix(n).conj().T
    blk = np.zeros((m, m), dtype=complex)
    blk[:n, :n] = np.eye(n)
    blk[:n, n + 1 :] = (-1.0) ** (n + 1) * cns
    blk[n, n] = np.sqrt(2.0)
    blk[n + 1 :, :n] = np.eye(n)
    blk[n + 1 :, n + 1 :] = (-1.0) ** n * cns
    return block_diag(blk, blk)


def even_order_Z(n: int) -> np.ndarray:
    """Fixed unitary right factor of the even-order (m = 2n) canonical form.

    Product of a 1/sqrt(2)-scaled sum/difference block matrix with the
    block-diagonal phase factor diag(I, (-1)^(n+1) i C_n, I, (-1)^(n+1) i C_n);
    block-diagonal over the two 2n x 2n quadrants.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    eye = np.eye(n, dtype=complex)
    butterfly = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
    first = block_diag(butterfly, butterfly)
    kappa = (-1.0) ** (n + 1) * 1j
    cn = symplectic_matrix(n)
    second = block_diag(eye, kappa * cn, eye, kappa * cn)
    return first @ second

