"""Self-adjoint boundary pairs: verification, synthesis, canonical forms.

A boundary pair is a pair (A, B) of m x m complex matrices encoding the
two-endpoint conditions A Y(a) + B Y(b) = 0.  The pair is self-adjoint
exactly when

    rank (A : B) = m    and    A C_m A* = B C_m B*

with C_m the signed antidiagonal symplectic matrix.  For either parity
every self-adjoint pair is, up to invertible row operations, of the
normalized form (I : W) V* for a unique unitary W, where V is the explicit
eigenbasis of the structure matrix.  The rank of A and B, and with it the
number k = m - rank A of unit cosines, is read off one corner block of W,
and the class follows from rank A: coupled when k = 0, separated when
rank A = n (even order only), mixed otherwise.  One call,
:func:`canonical_decompose`, serves both orders.  A CS decomposition of W
yields the pair's canonical factorization, (1/sqrt 2) Q1 @ core @ Q2 for
odd m = 2n+1 and U @ middle @ blockdiag(...) @ Z for even m = 2n, whose
sparse central block exposes the cosine/sine spectrum; it runs only when a
factor is read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csd import CsFactors, cs_decompose, cs_reconstruct
from .errors import InvalidTarget, NotSelfAdjoint, RankDeficient
from .linalg import (
    _W_NOISE_CERTIFIED,
    DEFAULT_TOL,
    RANK_REL,
    UNITARY_ABS,
    Tolerances,
    _row_rank,
    _svdvals,
    _w_noise,
    as_complex_matrix,
    block_diag,
    haar_unitary,
    relative_rank,
    require_unitary,
)
from .structure import (
    _GATHER_MIN,
    OrderSpec,
    _order_spec,
    eigenbasis,
    even_order_Z,
    q4_matrix,
)

__all__ = [
    "Classification",
    "BoundaryPair",
    "SelfAdjointReport",
    "CanonicalForm",
    "EvenCanonicalForm",
    "check_self_adjoint",
    "construct_from_W",
    "construct_even_from_W",
    "recover_W",
    "canonical_decompose",
    "generate_random_pair",
    "even_canonical_decompose",
]


_SMALLEST_NORMAL = np.finfo(float).tiny
_SQRT2 = np.sqrt(2.0)
# max|X*X - I| at which the recovery returns X as W and takes no further Newton-Schulz step.
_UNITARY_AS_SOLVED = 1e-14


class Classification(enum.Enum):
    """Boundary-condition type; SEPARATED is reachable only for even order."""

    MIXED = "mixed"
    COUPLED = "coupled"
    SEPARATED = "separated"


@dataclass(frozen=True, eq=False)
class BoundaryPair:
    """Pair (A, B) of m x m complex matrices with its order bookkeeping.

    Immutable: the pair keeps one private read-only copy of (A : B), and
    A and B are its column halves (views, not C-contiguous).  Raises
    ValueError on a non-finite entry, and on a pair whose nonzero real and
    imaginary parts are all subnormal: such entries have lost digits, so
    no rank read off them can be trusted.

    The pair is measured once, on first use, in eigenspace coordinates
    (``_measurement``): (P~ : R~) = (A : B) sqrt(2) V, gathered from the
    columns of (A : B) with the exact coefficients that
    :class:`~bccanon.structure.EigenBasis` stores.  V* (C_m (+) -C_m) V is
    diag(-I, I) (times +-i at even order), so the Gram residual
    ||A C_m A* - B C_m B*||_F is (1/2) ||R~ R~* - P~ P~*||_F, and
    P~ P~* + R~ R~* = 2 (A : B)(A : B)* is the Gram matrix whose shifted
    Cholesky certifies rank (A : B) = m (the SVD of (A : B) runs only when
    that fails).  The recovery of W reads the same two halves.  The
    singular values of A and of B are measured once, on the first read of
    a report's ``rank_A`` or ``rank_B``; from m = 64 up the values-only
    SVDs run on one OpenBLAS thread (see the README's performance notes).
    ``spec`` defaults to A's size, one cached spec per order.
    """

    A: np.ndarray
    B: np.ndarray
    spec: OrderSpec | None = None

    def __post_init__(self):
        a, b = np.asarray(self.A, dtype=complex), np.asarray(self.B, dtype=complex)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim if a.ndim != 2 else b.ndim}")
        spec = _order_spec(a.shape[0]) if self.spec is None else self.spec
        m = spec.m
        if a.shape != (m, m) or b.shape != (m, m):
            raise ValueError(f"expected two {m} x {m} matrices, got {a.shape} and {b.shape}")
        ab = np.concatenate((a, b), axis=1)  # np.hstack costs a microsecond more
        peak = np.abs(ab.view(float)).max()  # one pass serves both tests; NaN fails the first
        if not peak < np.inf:
            raise ValueError("matrix contains NaN or infinite entries")
        if 0.0 < peak < _SMALLEST_NORMAL:
            raise ValueError(f"every entry is subnormal or zero (largest part {peak:.3e}): too small to decide a rank")
        ab.flags.writeable = False
        vars(self).update(A=ab[:, :m], B=ab[:, m:], spec=spec, _ab=ab)  # frozen: one write to the instance dict

    @classmethod
    def from_matrices(cls, a, b) -> "BoundaryPair":
        """Build a pair, inferring the order spec from the matrix size."""
        return cls(A=a, B=b)

    def stacked(self) -> np.ndarray:
        """The m x 2m concatenation (A : B); the same read-only array on every call."""
        return self._ab

    @cached_property
    def _measurement(self) -> tuple[np.ndarray, float, int, np.ndarray | None]:
        """((P~ : R~) = (A : B) sqrt(2) V, one m x 2m array; the Gram residual, inf or nan on overflow;
        rank (A : B); its singular values, or None when the Cholesky certified it)."""
        m = self.spec.m
        coordinates = eigenbasis(self.spec)._scaled_product(self._ab)
        halves = coordinates.reshape(m, 2, m).transpose(1, 0, 2)  # the (2, m, m) view (P~, R~)
        with np.errstate(over="ignore", invalid="ignore"):
            # Below _GATHER_MIN one stacked matmul, with each product's bits; from it up two, with smaller temporaries.
            pp, rr = halves @ halves.conj().transpose(0, 2, 1) if m < _GATHER_MIN else (x @ x.conj().T for x in halves)
            gram = pp + rr
            rr -= pp
            residual = 0.5 * float(np.linalg.norm(rr))
            del pp, rr  # freed before the Cholesky allocates its own
            return coordinates, residual, *_row_rank(self._ab, gram)

    @cached_property
    def _block_singular_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(singular values of A, singular values of B), from one stacked SVD."""
        sigma_a, sigma_b = _svdvals(np.array((self.A, self.B)))  # np.stack costs microseconds more
        return sigma_a, sigma_b

    @cached_property
    def _singular_values(self) -> np.ndarray:
        """Singular values of (A : B): the check's, when its certificate failed, else one values-only SVD."""
        sigma = self._measurement[3]
        return _svdvals(self._ab) if sigma is None else sigma


@dataclass(frozen=True)
class SelfAdjointReport:
    """Outcome of the rank + Gram self-adjointness criterion for the pair ``_pair``.

    ``rank_A`` and ``rank_B``, diagnostics the verdict does not use, come from the
    pair's stacked SVD of A and B, run on the first read; ``==`` and ``repr`` read them.
    """

    rank_AB: int
    rank_ok: bool
    gram_residual: float
    gram_ok: bool
    _pair: BoundaryPair = field(compare=False)

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.gram_ok

    @property
    def rank_A(self) -> int:
        return relative_rank(self._pair._block_singular_values[0])

    @property
    def rank_B(self) -> int:
        return relative_rank(self._pair._block_singular_values[1])

    def _items(self) -> tuple:
        return tuple((k, getattr(self, k)) for k in ("rank_AB", "rank_ok", "gram_residual", "gram_ok", "rank_A", "rank_B"))

    def __eq__(self, other):
        return self._items() == other._items() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._items())})"


def _criterion(pair: BoundaryPair, tol: Tolerances) -> tuple[int, bool, float, bool]:
    """(rank (A : B), whether it is m, Gram residual, whether it is within ``tol``): a report's verdict fields."""
    _, gram_residual, rank_ab, _ = pair._measurement
    return rank_ab, rank_ab == pair.spec.m, gram_residual, gram_residual <= tol.residual_abs


def check_self_adjoint(pair: BoundaryPair, tol: Tolerances = DEFAULT_TOL) -> SelfAdjointReport:
    """Evaluate rank (A : B) = m and A C_m A* = B C_m B*; never raises.

    Each call applies its own ``tol`` to the pair's cached measurement: one
    Cholesky certifies rank (A : B) = m, and the SVD of (A : B) runs only
    when it fails.  rank A and rank B are measured only when read.
    """
    return SelfAdjointReport(*_criterion(pair, tol), pair)


def construct_from_W(w, spec: OrderSpec) -> BoundaryPair:
    """Normalized self-adjoint pair (V11* + W V12* : V21* + W V22*) = (I : W) V*.

    V is the eigenbasis of either parity (:func:`~bccanon.structure.eigenbasis`).
    Every unitary W yields a self-adjoint pair, and every self-adjoint pair
    is row-equivalent to exactly one pair of this form.  Raises ValueError
    unless W is finite and m x m, and NotUnitary when its unitarity residual
    exceeds ``UNITARY_ABS``.
    """
    w = as_complex_matrix(w)
    m = spec.m
    if w.shape != (m, m):
        raise ValueError(f"W must be {m} x {m}, got {w.shape}")
    require_unitary(w)
    v = eigenbasis(spec).V
    a = v[:m, :m].conj().T + w @ v[:m, m:].conj().T
    b = v[m:, :m].conj().T + w @ v[m:, m:].conj().T
    return BoundaryPair(A=a, B=b, spec=spec)


construct_even_from_W = construct_from_W


def _recover_coupling(pair: BoundaryPair, tol: Tolerances):
    """(W, P): the unique unitary W and the P with (A : B) = P (I : W) V*.

    Applies ``tol`` to the pair's measurement, then reads the split
    (A : B) sqrt(2) V = (P~ : R~), R~ = P~ W, that the check measured, and
    returns P = P~ / sqrt(2): no product with V is formed.  Newton-Schulz
    steps X (3I - X*X) / 2 from X = P~^-1 R~ (one LU solve) stop at the first
    X with max|X*X - I| <= 1e-14, which is most often the solve's own, or
    after the step from within ``UNITARY_ABS``.  They converge while
    m max|X*X - I| < 1 (Higham, Functions of Matrices, 2008, ch. 8).
    RankDeficient: the solve or that test fails, or five steps fall short;
    no unitary W is in their reach.
    """
    m = pair.spec.m
    rank_ab, rank_ok, gram_residual, gram_ok = _criterion(pair, tol)
    if not (rank_ok and gram_ok):
        raise NotSelfAdjoint(f"rank(A:B)={rank_ab} (need {m}), gram residual {gram_residual:.3e}")
    coordinates = pair._measurement[0]
    p_scaled, r_scaled = coordinates[:, :m], coordinates[:, m:]
    try:
        x = np.linalg.solve(p_scaled, r_scaled)
        for _ in range(5):
            step = x.conj().T @ x  # becomes X*X - I, then 1.5 I - 0.5 X*X, in place
            diagonal = step.reshape(-1)[:: m + 1]  # a view: the product is C-contiguous
            diagonal -= 1.0
            residual = abs(step).max()
            if not m * residual < 1.0:  # convergence not certain; NaN fails too
                break
            if residual <= _UNITARY_AS_SOLVED:
                return x, p_scaled / _SQRT2
            step *= 0.5
            np.subtract(0.0, step, out=step)  # 0.0 - h, as 1.5 I - 0.5 X*X rounds it: each zero +0.0
            diagonal += 1.0
            x = x @ step
            if residual <= UNITARY_ABS:
                return x, p_scaled / _SQRT2
    except np.linalg.LinAlgError:  # P exactly singular
        pass
    raise RankDeficient("eigenspace coefficient matrix is numerically singular")


def recover_W(pair: BoundaryPair, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Invert :func:`construct_from_W` up to row equivalence.

    The result is invariant under left multiplication of the pair by any
    invertible matrix; :func:`_recover_coupling` gives the route: one solve,
    then Newton-Schulz steps only when its X is not unitary to roundoff.
    Raises NotSelfAdjoint when the rank/Gram criterion fails and
    RankDeficient when no unitary W is within reach of those steps.
    """
    return _recover_coupling(pair, tol)[0]


def _central_block(cs: CsFactors, slots) -> np.ndarray:
    """``[cs.core[:, :p] | E_s for s in slots | cs.core[:, p:]]``.

    E_0 = I_m[:, :p] and E_1 = I_m[:, p:] are the identity columns of the
    two CS blocks.
    """
    p = cs.p
    core = cs.core
    eye = np.eye(p + cs.q, dtype=complex)
    e = (eye[:, :p], eye[:, p:])
    return np.hstack([core[:, :p], *(e[s] for s in slots), core[:, p:]])


def _right_block(cs: CsFactors, slots) -> np.ndarray:
    """``blockdiag(v1, U_s* for s in slots, v2)``, matching :func:`_central_block`."""
    u = (cs.u1, cs.u2)
    return block_diag(cs.v1, *(u[s].conj().T for s in slots), cs.v2)


def _odd_layout(cs: CsFactors):
    """Where the odd-order layout puts the CS block with n+1 rows.

    Returns (big, small, rest, cut).  ``big`` and ``small`` index the blocks
    with n+1 and n rows.  ``rest`` slices the big block's rows other than its
    structural unit, which :func:`cs_core` puts last in block 1 when p > q
    and first in block 2 when q > p.  The selector hands the big block's
    identity columns ``[:cut]`` and ``[cut:]`` to its second and fourth
    slots, which leaves the structural column alone in one of them.
    """
    n = min(cs.p, cs.q)
    if cs.p > cs.q:
        return 0, 1, slice(0, n), n
    return 1, 0, slice(1, n + 1), 1


def _k_matrix(cs: CsFactors) -> np.ndarray:
    """The big block's non-structural corner rows times its core block."""
    big, _, rest, _ = _odd_layout(cs)
    block = (slice(0, cs.p), slice(cs.p, cs.p + cs.q))[big]
    return (cs.u1, cs.u2)[big][rest, :] @ cs.core[block, block]


def _decide(w: np.ndarray, pair: BoundaryPair) -> int:
    """rank A of ``pair``, whose recovered coupling unitary is W, from one corner block.

    The block is cut at max(RANK_REL, 4 m eps kappa), kappa = cond (A : B):
    W errs by about eps kappa, and at kappa near 1e8 that exceeds RANK_REL.
    kappa costs no SVD when the check ran one, nor when no value of the
    block lies where a kappa the certificate allows could move the rank.
    With (p, q) = ``spec.csd_partition``, rank A = q + rank W[q:, :p] and
    rank B = p + rank W[:q, p:] (both n + rank S at even order); the rank
    A block decides.  When every sine is decided zero (rank A = m - n) and
    zeroing keeps W unitary within ``UNITARY_ABS``, W's off-diagonal CS blocks
    are zeroed in place: the CSD then gives u1 = u2 = I and an exact K.
    """
    spec = pair.spec
    p, q = spec.csd_partition
    sigma = _svdvals(w[q:, :p])
    rank = int(np.count_nonzero(sigma > RANK_REL))
    if pair._measurement[3] is not None or (rank and sigma[rank - 1] <= _W_NOISE_CERTIFIED):
        noise = _w_noise(pair._singular_values)
        if noise > RANK_REL:
            rank = int(np.count_nonzero(sigma > noise))
    rank += q
    if rank == spec.m - spec.n:
        upper, lower = w[:p, p:], w[p:, :p]
        # Zeroing moves W*W - I by at most a block's squared Frobenius norm; half is left to W's roundoff.
        if max(np.vdot(upper, upper).real, np.vdot(lower, lower).real) <= 0.5 * UNITARY_ABS:
            for block in (upper, lower):
                block[block != 0] = 0.0  # an entry already zero keeps its sign bit
    return rank


@dataclass(frozen=True, eq=False)
class _Form:
    """Fields and CS factors shared by both canonical forms.

    Holds the recovered W, its left factor P with (A : B) = P (I : W) V*,
    and rank A (= rank B), from which the class follows.  The CS factors
    ``cs`` of W over ``spec.csd_partition``, and every factor built from
    them, are derived on first access and cached; the first such read runs
    the CS decomposition and may raise ConvergenceFailure.
    """

    spec: OrderSpec
    W: np.ndarray
    P: np.ndarray
    rank: int

    @property
    def classification(self) -> Classification:
        """Coupled when rank A = m, separated when rank A = n (even order only), mixed otherwise."""
        if self.rank == self.spec.m:
            return Classification.COUPLED
        if self.rank == self.spec.n:
            return Classification.SEPARATED
        return Classification.MIXED

    @cached_property
    def cs(self) -> CsFactors:
        return cs_decompose(self.W, *self.spec.csd_partition)

    @property
    def cos(self) -> np.ndarray:
        return self.cs.cos

    @property
    def sin(self) -> np.ndarray:
        return self.cs.sin


class CanonicalForm(_Form):
    """Odd-order canonical factorization of a boundary pair.

    ``null_count``, ``predicted_rank_A/B`` and ``r`` follow from ``rank``.
    The factors satisfy
    ``(1/sqrt 2) Q1 @ core @ Q2 == construct_from_W(W, spec)``, i.e.
    reconstruction agrees with the row-normalized representative of the
    input pair, not the raw input.  ``Q2 = diag-factor @ Q3`` and
    ``Q3 = selector @ Q4``.  rank A = rank B is decided on a corner block of
    W (see :func:`_decide`); it equals 2n+1 - (n - rank M),
    where M M* = I - K K* and M = U_big[rest, rest] diag(sin).
    """

    @property
    def null_count(self) -> int:
        return self.spec.m - self.rank

    @property
    def predicted_rank_A(self) -> int:
        return self.rank

    @property
    def predicted_rank_B(self) -> int:
        return self.rank

    @property
    def r(self) -> int:
        return self.rank - (self.spec.n + 1)

    @cached_property
    def Q1(self) -> np.ndarray:
        return block_diag(self.cs.u1, self.cs.u2)

    @cached_property
    def core(self) -> np.ndarray:
        big, small, _, _ = _odd_layout(self.cs)
        return _central_block(self.cs, (big, small, big))

    @cached_property
    def Q4(self) -> np.ndarray:
        return q4_matrix(self.spec)

    @cached_property
    def Q3(self) -> np.ndarray:
        big, small, _, cut = _odd_layout(self.cs)
        eye = (np.eye(self.cs.p, dtype=complex), np.eye(self.cs.q, dtype=complex))
        selector = block_diag(eye[0], eye[big][:, :cut], eye[small], eye[big][:, cut:], eye[1])
        return selector @ self.Q4

    @cached_property
    def Q2(self) -> np.ndarray:
        big, small, _, _ = _odd_layout(self.cs)
        return _right_block(self.cs, (big, small, big)) @ self.Q3

    @cached_property
    def K(self) -> np.ndarray:
        return _k_matrix(self.cs)

    def reconstruct(self) -> np.ndarray:
        """The m x 2m product (1/sqrt 2) Q1 @ core @ Q2."""
        return (self.Q1 @ self.core @ self.Q2) / _SQRT2


class EvenCanonicalForm(_Form):
    """Even-order canonical factorization (A : B) = U @ middle @ right.

    U = P @ blockdiag(U1, U2) is 2n x 2n invertible (not necessarily
    unitary), with P the coefficient matrix of the recovery, ``middle`` is
    the sparse block [C I 0 S; -S 0 I C], and ``right`` is the block diagonal
    of V1, U1*, U2*, V2 times Z, the fixed unitary right factor.  Classification
    is read off the sines, the singular values of W's lower-left n x n
    block: separated iff S = 0, coupled iff S has full rank n, mixed in
    between; ``rank_S = rank - n``.
    """

    @property
    def rank_S(self) -> int:
        return self.rank - self.spec.n

    @cached_property
    def U(self) -> np.ndarray:
        return self.P @ block_diag(self.cs.u1, self.cs.u2)

    @cached_property
    def middle(self) -> np.ndarray:
        return _central_block(self.cs, (0, 1))

    @cached_property
    def Z(self) -> np.ndarray:
        return even_order_Z(self.spec.n)

    @cached_property
    def right(self) -> np.ndarray:
        return _right_block(self.cs, (0, 1)) @ self.Z

    def reconstruct(self) -> np.ndarray:
        """The 2n x 4n product U @ middle @ right; equals (A : B) exactly."""
        return self.U @ self.middle @ self.right


def canonical_decompose(pair: BoundaryPair, tol: Tolerances = DEFAULT_TOL) -> CanonicalForm | EvenCanonicalForm:
    """Canonical factorization of a self-adjoint pair of either order.

    Recovers the coupling unitary W and decides rank A, and with it the
    class, from the rank A corner block of W.  Returns a
    :class:`CanonicalForm` for odd m = 2n+1, with CS partition (n+1, n) or
    (n, n+1), and an :class:`EvenCanonicalForm` for even m = 2n, with the
    balanced partition p = q = n.  The CS decomposition of W and every
    factor built from it are left to the returned form to derive when read.
    """
    w, p_coef = _recover_coupling(pair, tol)
    form = CanonicalForm if pair.spec.is_odd_order else EvenCanonicalForm
    return form(pair.spec, w, p_coef, _decide(w, pair))


even_canonical_decompose = canonical_decompose


def generate_random_pair(spec: OrderSpec, seed: int, target_unit_cosines: int | None = None) -> BoundaryPair:
    """Seeded random self-adjoint pair, optionally with a prescribed spectrum.

    Without a target the coupling unitary is Haar distributed.  With
    ``target_unit_cosines = k`` exactly k cosines are set to 1 and the rest
    are drawn uniformly from (1e-3, 1 - 1e-3), which pins the nullity of
    I - K K* = M M* to k for odd order and the sine rank to n-k for even
    order, hence rank A = m - k.  Every other sine is at least
    sqrt(1 - (1 - 1e-3)^2) > 0.044, far above the cutoff ``RANK_REL``, so
    the corner-block rank decision reads exactly m - k.  The pair is built
    in the normalized form (I : W) V*, self-adjoint for every unitary W.
    Raises InvalidTarget for a negative seed or a target outside [0, n].
    """
    n = spec.n
    if seed < 0:
        raise InvalidTarget(f"seed must be non-negative, got {seed}")
    if target_unit_cosines is not None and not 0 <= target_unit_cosines <= n:
        raise InvalidTarget(f"target_unit_cosines must lie in [0, {n}], got {target_unit_cosines}")
    rng = np.random.default_rng([seed, 0])
    if target_unit_cosines is None:
        return construct_from_W(haar_unitary(spec.m, rng), spec)
    k = target_unit_cosines
    cos = np.sort(np.concatenate([np.ones(k), rng.uniform(1e-3, 1.0 - 1e-3, n - k)]))[::-1]
    sin = np.sqrt(1.0 - cos**2)
    p, q = spec.csd_partition
    u1, u2, v1, v2 = (haar_unitary(size, rng) for size in (p, q, p, q))
    return construct_from_W(cs_reconstruct(CsFactors(p, q, u1, u2, v1, v2, cos, sin)), spec)
