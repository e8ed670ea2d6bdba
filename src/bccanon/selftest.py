"""Seeded invariant suite behind the ``selftest`` CLI command.

Each check exercises one library invariant over a configurable number of
random trials per order and reports pass/fail with a worst-case metric.
Orders are matrix sizes m; odd m go through the odd-order pipeline, and
the even-order extension is probed at n = 1..3 and at m/2 for every even m
given.  Every pair is built in the normalized form, self-adjoint by
construction, so every library call runs with its defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csd import cs_decompose, cs_reconstruct
from .forms import (
    Classification,
    canonical_decompose,
    check_self_adjoint,
    construct_from_W,
    generate_random_pair,
    recover_W,
    BoundaryPair,
    _odd_layout,
)
from .linalg import (
    haar_unitary,
    numerical_rank,
    random_unitary,
    row_space_angles,
    unit_rank,
    unitarity_residual,
)
from .structure import OrderSpec

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float


def _odd_specs(orders):
    return [OrderSpec.from_order(m) for m in orders if m % 2 == 1]


def _random_conditioned(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible matrix with condition number below 100."""
    u = haar_unitary(m, rng)
    v = haar_unitary(m, rng)
    return u @ np.diag(rng.uniform(0.2, 2.0, m)).astype(complex) @ v


def _check_csd_round_trip(orders, trials):
    worst_recon = worst_unit = worst_pyth = worst_cos = 0.0
    rng = np.random.default_rng(1914)
    for spec in _odd_specs(orders):
        n = spec.n
        for p, q in ((n + 1, n), (n, n + 1)):
            for _ in range(trials):
                w = haar_unitary(spec.m, rng)
                f = cs_decompose(w, p, q)
                worst_recon = max(worst_recon, float(np.linalg.norm(cs_reconstruct(f) - w)))
                for corner in (f.u1, f.u2, f.v1, f.v2):
                    worst_unit = max(worst_unit, unitarity_residual(corner))
                worst_pyth = max(worst_pyth, float(np.max(np.abs(f.cos**2 + f.sin**2 - 1.0))))
                sigma = np.linalg.svd(w[:p, :p], compute_uv=False)
                worst_cos = max(worst_cos, float(np.max(np.abs(sigma[max(p - q, 0):] - f.cos))))
    return [
        CheckResult("csd_round_trip", worst_recon < 1e-9, worst_recon),
        CheckResult("csd_corner_unitarity", worst_unit < 1e-10, worst_unit),
        CheckResult("csd_cos2_plus_sin2", worst_pyth < 1e-12, worst_pyth),
        CheckResult("csd_cos_vs_block_svd", worst_cos < 1e-10, worst_cos),
    ]


def _check_self_adjoint_closure(orders, trials):
    worst = 0.0
    ok = True
    for spec in _odd_specs(orders):
        for t in range(trials):
            pair = construct_from_W(random_unitary(spec.m, 7000 + 13 * spec.m + t), spec)
            report = check_self_adjoint(pair)
            ok = ok and report.ok
            worst = max(worst, report.gram_residual)
    return [CheckResult("self_adjoint_closure", ok and worst < 1e-11, worst)]


def _check_recover_round_trip(orders, trials):
    worst_rt = worst_rowop = 0.0
    rng = np.random.default_rng(2718)
    for spec in _odd_specs(orders):
        for t in range(trials):
            w0 = haar_unitary(spec.m, rng)
            pair = construct_from_W(w0, spec)
            worst_rt = max(worst_rt, float(np.linalg.norm(recover_W(pair) - w0)))
            g = _random_conditioned(spec.m, rng)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            worst_rowop = max(worst_rowop, float(np.linalg.norm(recover_W(moved) - w0)))
    return [
        CheckResult("recover_round_trip", worst_rt < 1e-9, worst_rt),
        CheckResult("recover_row_op_invariance", worst_rowop < 1e-8, worst_rowop),
    ]


def _m_route_rank(form) -> int:
    """rank A as 2n+1 - (n - rank M), with M M* = I - K K* and M = U_big[rest, rest] diag(sin)."""
    big, _, rest, _ = _odd_layout(form.cs)
    m = (form.cs.u1, form.cs.u2)[big][rest, rest] * form.cs.sin
    return form.spec.m - len(form.cs.sin) + unit_rank(m)


def _check_rank_agreement(orders, trials):
    equal = bounds = blocks = m_route = True
    for spec in _odd_specs(orders):
        n = spec.n
        for t in range(trials):
            k = t % (n + 1)
            pair = generate_random_pair(spec, 9000 + 17 * spec.m + t, target_unit_cosines=k)
            rank_a = numerical_rank(pair.A)
            rank_b = numerical_rank(pair.B)
            form = canonical_decompose(pair)
            pa, pb = form.predicted_rank_A, form.predicted_rank_B
            equal = equal and rank_a == rank_b
            bounds = bounds and (n + 1 <= rank_a <= 2 * n + 1)
            blocks = blocks and pa == rank_a and pb == rank_b and rank_a == spec.m - k
            m_route = m_route and _m_route_rank(form) == rank_a
    return [
        CheckResult("rank_equality", equal, 0.0),
        CheckResult("rank_bounds", bounds, 0.0),
        CheckResult("rank_corner_block_vs_svd", blocks, 0.0),
        CheckResult("rank_m_route_vs_svd", m_route, 0.0),
    ]


def _check_canonical_reconstruction(orders, trials):
    worst_eq = worst_angle = 0.0
    rng = np.random.default_rng(3141)
    for spec in _odd_specs(orders):
        for t in range(trials):
            pair = construct_from_W(haar_unitary(spec.m, rng), spec)
            g = _random_conditioned(spec.m, rng)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            form = canonical_decompose(moved)
            product = form.reconstruct()
            normalized = construct_from_W(form.W, spec)
            worst_eq = max(worst_eq, float(np.linalg.norm(product - normalized.stacked())))
            worst_angle = max(worst_angle, float(np.max(row_space_angles(product, moved.stacked()))))
    return [
        CheckResult("canonical_reconstruction", worst_eq < 1e-9, worst_eq),
        CheckResult("canonical_row_space", worst_angle < 1e-8, worst_angle),
    ]


def _check_even_order(orders, trials):
    worst_recon = 0.0
    trichotomy = support = True
    for m in sorted({2, 4, 6}.union(m for m in orders if m % 2 == 0)):
        spec = OrderSpec.from_order(m)
        n = spec.n
        for t in range(trials):
            k = t % (n + 1)
            pair = generate_random_pair(spec, 13000 + 23 * n + t, target_unit_cosines=k)
            form = canonical_decompose(pair)
            worst_recon = max(worst_recon, float(np.linalg.norm(form.reconstruct() - pair.stacked())))
            trichotomy = trichotomy and form.rank_S == n - k
            if form.classification is Classification.SEPARATED:
                rows = np.linalg.solve(form.U, pair.stacked())
                for row in rows:
                    support = support and min(
                        float(np.linalg.norm(row[: 2 * n])), float(np.linalg.norm(row[2 * n :]))
                    ) < 1e-9
    return [
        CheckResult("even_reconstruction", worst_recon < 1e-9, worst_recon),
        CheckResult("even_trichotomy", trichotomy, 0.0),
        CheckResult("even_separated_support", support, 0.0),
    ]


def run_selftest(orders=(3, 5, 7, 9), trials: int = 20):
    """Run every check that builds a pair (the odd ones only at odd orders); returns CheckResults."""
    results = []
    if _odd_specs(orders):
        results += _check_csd_round_trip(orders, trials)
        results += _check_self_adjoint_closure(orders, trials)
        results += _check_recover_round_trip(orders, trials)
        results += _check_rank_agreement(orders, trials)
        results += _check_canonical_reconstruction(orders, trials)
    results += _check_even_order(orders, trials)
    return results
