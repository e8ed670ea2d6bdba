"""Tests for the even-order (m = 2n) canonical form."""

import numpy as np
import pytest

from bccanon import (
    BoundaryPair,
    Classification,
    NotSelfAdjoint,
    OrderSpec,
    check_self_adjoint,
    construct_even_from_W,
    even_canonical_decompose,
    generate_random_pair,
    haar_unitary,
    random_unitary,
    recover_W,
)


def dirichlet_pair():
    """Conditions y(a) = 0 and y(b) = 0: separated at both endpoints."""
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return BoundaryPair.from_matrices(a, b)


def periodic_pair():
    """Conditions Y(a) = Y(b): every row couples both endpoints."""
    return BoundaryPair.from_matrices(np.eye(2), -np.eye(2))


class TestFixtures:
    def test_dirichlet_is_self_adjoint(self):
        assert check_self_adjoint(dirichlet_pair()).ok

    def test_dirichlet_separated(self):
        form = even_canonical_decompose(dirichlet_pair())
        assert np.max(form.sin) < 1e-10
        assert form.rank_S == 0
        assert form.classification is Classification.SEPARATED
        assert np.linalg.norm(form.reconstruct() - dirichlet_pair().stacked()) < 1e-12

    def test_periodic_coupled(self):
        form = even_canonical_decompose(periodic_pair())
        assert form.rank_S == 1
        assert form.classification is Classification.COUPLED
        assert np.linalg.norm(form.reconstruct() - periodic_pair().stacked()) < 1e-12


class TestEvenPipeline:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constructed_pairs_self_adjoint(self, n):
        spec = OrderSpec.from_order(2 * n)
        for seed in range(10):
            pair = construct_even_from_W(random_unitary(2 * n, 600 + seed), spec)
            report = check_self_adjoint(pair)
            assert report.ok
            assert report.gram_residual < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reconstruction(self, n):
        spec = OrderSpec.from_order(2 * n)
        rng = np.random.default_rng(n)
        for seed in range(10):
            pair = construct_even_from_W(random_unitary(2 * n, 700 + seed), spec)
            g = haar_unitary(2 * n, rng) @ np.diag(rng.uniform(0.2, 2.0, 2 * n)).astype(complex)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            form = even_canonical_decompose(moved)
            assert np.linalg.norm(form.reconstruct() - moved.stacked()) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coupling_recovery_round_trip(self, n):
        spec = OrderSpec.from_order(2 * n)
        for seed in range(10):
            w0 = random_unitary(2 * n, 800 + seed)
            form = even_canonical_decompose(construct_even_from_W(w0, spec))
            assert np.linalg.norm(form.W - w0) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recover_W_under_row_operations(self, n):
        spec = OrderSpec.from_order(2 * n)
        rng = np.random.default_rng(40 + n)
        for seed in range(10):
            w0 = random_unitary(2 * n, 900 + seed)
            pair = construct_even_from_W(w0, spec)
            g = haar_unitary(2 * n, rng) @ np.diag(rng.uniform(0.2, 2.0, 2 * n)) @ haar_unitary(2 * n, rng)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            w = recover_W(moved)
            assert np.max(np.abs(w - w0)) < 1e-8
            assert np.array_equal(w, even_canonical_decompose(moved).W)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trichotomy(self, n):
        spec = OrderSpec.from_order(2 * n)
        for t in range(12):
            k = t % (n + 1)
            pair = generate_random_pair(spec, 4500 + t, target_unit_cosines=k)
            form = even_canonical_decompose(pair)
            assert form.rank_S == n - k
            if form.rank_S == 0:
                assert form.classification is Classification.SEPARATED
            elif form.rank_S == n:
                assert form.classification is Classification.COUPLED
            else:
                assert form.classification is Classification.MIXED

    def test_separated_rows_split_between_endpoints(self):
        spec = OrderSpec.from_order(6)
        pair = generate_random_pair(spec, 9, target_unit_cosines=3)
        form = even_canonical_decompose(pair)
        assert form.classification is Classification.SEPARATED
        normalized = np.linalg.solve(form.U, pair.stacked())
        for row in normalized:
            assert min(np.linalg.norm(row[:6]), np.linalg.norm(row[6:])) < 1e-9

    def test_factor_contracts(self):
        form = even_canonical_decompose(construct_even_from_W(random_unitary(6, 1), OrderSpec.from_order(6)))
        n = 3
        assert form.U.shape == (2 * n, 2 * n)
        assert abs(np.linalg.det(form.U)) > 1e-8
        assert form.middle.shape == (2 * n, 4 * n)
        assert form.Z.shape == (4 * n, 4 * n)
        assert np.all(form.cos >= 0) and np.all(form.cos <= 1)
        assert np.max(np.abs(form.cos**2 + form.sin**2 - 1.0)) < 1e-12


class TestEvenErrors:
    def test_non_self_adjoint_rejected(self):
        pair = BoundaryPair.from_matrices(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NotSelfAdjoint):
            even_canonical_decompose(pair)
