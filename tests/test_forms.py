"""Tests for boundary-pair verification, synthesis and canonical forms (odd order)."""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bccanon import (
    BoundaryPair,
    CanonicalForm,
    Classification,
    CsFactors,
    EvenCanonicalForm,
    NotSelfAdjoint,
    NotUnitary,
    OrderSpec,
    RankDeficient,
    Tolerances,
    UnsupportedOrder,
    canonical_decompose,
    check_self_adjoint,
    construct_from_W,
    cs_reconstruct,
    eigenbasis,
    even_canonical_decompose,
    generate_random_pair,
    haar_unitary,
    numerical_rank,
    random_unitary,
    recover_W,
    row_space_angles,
    symplectic_matrix,
    unitarity_residual,
)
import bccanon
from bccanon import csd
from bccanon.linalg import RANK_REL, UNITARY_ABS, unit_rank

SPEC5 = OrderSpec.from_order(5)
SPEC3 = OrderSpec.from_order(3)


def coupled_unitary_order5():
    """The antidiagonal block unitary [[0,0,I2],[0,1,0],[-I2,0,0]]."""
    w = np.zeros((5, 5), dtype=complex)
    w[0:2, 3:5] = np.eye(2)
    w[2, 2] = 1.0
    w[3:5, 0:2] = -np.eye(2)
    return w


def conditioned_invertible(m, rng):
    """Random invertible matrix with condition number below 100."""
    return haar_unitary(m, rng) @ np.diag(rng.uniform(0.2, 2.0, m)).astype(complex) @ haar_unitary(m, rng)


def corner_block_ranks(w, spec):
    """(rank A, rank B) = (q + rank W[q:, :p], p + rank W[:q, p:]), each block cut at ``RANK_REL``."""
    p, q = spec.csd_partition
    return q + unit_rank(w[q:, :p]), p + unit_rank(w[:q, p:])


def svd_route_w(pair):
    """W = Vp (Up* Ur) Vr* from the SVDs Up Sp Vp* of P and Ur Sr Vr* of R, (A : B) V = (P : R)."""
    m = pair.spec.m
    v = eigenbasis(pair.spec).V
    up, _, vph = np.linalg.svd(pair.stacked() @ v[:, :m])
    ur, _, vrh = np.linalg.svd(pair.stacked() @ v[:, m:])
    return vph.conj().T @ (up.conj().T @ ur) @ vrh


class TestCheckSelfAdjoint:
    def test_equal_pair_passes(self):
        pair = BoundaryPair.from_matrices(np.eye(5), np.eye(5))
        report = check_self_adjoint(pair)
        assert report.rank_ok and report.rank_AB == 5
        assert report.gram_residual == 0.0
        assert report.gram_ok and report.ok

    def test_one_sided_pair_fails_gram(self):
        pair = BoundaryPair.from_matrices(np.eye(5), np.zeros((5, 5)))
        report = check_self_adjoint(pair)
        assert report.rank_ok
        assert not report.gram_ok
        assert not report.ok

    def test_constructed_pair_passes(self):
        pair = construct_from_W(random_unitary(5, 11), SPEC5)
        report = check_self_adjoint(pair)
        assert report.ok
        assert report.gram_residual < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 64])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_warn_nothing(self, m, scale):
        # At 1e200 the Gram residual and x x* overflow; at 1e-200 x x* underflows to zero.
        pair = BoundaryPair.from_matrices(scale * np.eye(m), scale * np.eye(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_self_adjoint(pair)
            if scale < 1.0:
                form = canonical_decompose(pair)
        assert report.rank_AB == m
        assert report.gram_ok is (scale < 1.0)
        if scale < 1.0:
            assert form.classification is Classification.COUPLED


scale_defect = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the Gram residual is absolute, so scale and row operations move the verdict "
    "(ROADMAP, 'A verdict free of scale and of row operations')",
)


class TestVerdictFreeOfScale:
    """The verdict must not move under scaling or an invertible row operation."""

    @scale_defect
    @pytest.mark.parametrize(
        "g", [1e4 * np.eye(5), 1e6 * np.eye(5), np.diag([1e5, 1, 1, 1, 1])], ids=["s1e4", "s1e6", "row-mixed"]
    )
    def test_self_adjoint_pair_passes(self, g):
        pair = generate_random_pair(SPEC5, 1, target_unit_cosines=1)
        assert check_self_adjoint(BoundaryPair.from_matrices(g @ pair.A, g @ pair.B)).ok

    @scale_defect
    @pytest.mark.parametrize("seed", range(5))
    def test_tiny_random_pair_fails(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in "AB")
        assert not check_self_adjoint(BoundaryPair.from_matrices(1e-5 * a, 1e-5 * b)).ok


class TestConstructFromW:
    def test_identity_coupling_order5(self):
        pair = construct_from_W(np.eye(5, dtype=complex), SPEC5)
        s = np.sqrt(2.0)
        expected_a = np.diag([s, s, 1.0, 0.0, 0.0]).astype(complex)
        expected_b = np.zeros((5, 5), dtype=complex)
        expected_b[2, 2] = 1.0
        expected_b[3, 0] = s
        expected_b[4, 1] = s
        assert np.max(np.abs(pair.A - expected_a)) < 1e-14
        assert np.max(np.abs(pair.B - expected_b)) < 1e-14

    def test_identity_coupling_order3(self):
        pair = construct_from_W(np.eye(3, dtype=complex), SPEC3)
        s = np.sqrt(2.0)
        assert np.max(np.abs(pair.A - np.diag([s, 1.0, 0.0]))) < 1e-14
        expected_b = np.zeros((3, 3), dtype=complex)
        expected_b[1, 1] = 1.0
        expected_b[2, 0] = s
        assert np.max(np.abs(pair.B - expected_b)) < 1e-14

    def test_coupled_example_has_full_rank(self):
        pair = construct_from_W(coupled_unitary_order5(), SPEC5)
        assert numerical_rank(pair.A) == 5
        assert numerical_rank(pair.B) == 5

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            construct_from_W(np.ones((5, 5)), SPEC5)

    @pytest.mark.parametrize("size", [4, 9])
    def test_rejects_a_wrong_shape(self, size):
        with pytest.raises(ValueError, match=f"W must be 5 x 5, got \\({size}, {size}\\)"):
            construct_from_W(np.eye(size), SPEC5)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_closure_property(self, seed, n):
        spec = OrderSpec.from_order(2 * n + 1)
        pair = construct_from_W(random_unitary(spec.m, seed), spec)
        report = check_self_adjoint(pair)
        assert report.ok
        assert report.gram_residual < 1e-12


class TestRecoverW:
    def test_identity_round_trip(self):
        pair = construct_from_W(np.eye(5, dtype=complex), SPEC5)
        assert np.linalg.norm(recover_W(pair) - np.eye(5)) < 1e-10

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_haar_round_trip(self, m):
        spec = OrderSpec.from_order(m)
        for seed in range(10):
            w0 = random_unitary(m, 500 + seed)
            pair = construct_from_W(w0, spec)
            assert np.linalg.norm(recover_W(pair) - w0) < 1e-9

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_row_operation_invariance(self, m):
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(m)
        for seed in range(10):
            w0 = random_unitary(m, 900 + seed)
            pair = construct_from_W(w0, spec)
            g = conditioned_invertible(m, rng)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            assert np.linalg.norm(recover_W(moved) - w0) < 1e-8

    def test_rejects_non_self_adjoint(self):
        pair = BoundaryPair.from_matrices(np.eye(5), np.zeros((5, 5)))
        with pytest.raises(NotSelfAdjoint):
            recover_W(pair)

    @pytest.mark.parametrize("tol", [None, Tolerances(residual_abs=0.5)])
    def test_raises_exactly_when_the_check_fails(self, tol):
        good = generate_random_pair(SPEC5, 3)
        nudge = 1e-4 * np.random.default_rng(31).standard_normal((5, 5))
        pairs = {
            "gram": BoundaryPair.from_matrices(np.eye(5), np.zeros((5, 5))),
            "nudged": BoundaryPair(A=good.A + nudge, B=good.B, spec=SPEC5),  # Gram residual between the two bounds
            "rank": BoundaryPair(A=good.A[[1, 1, 2, 3, 4]], B=good.B[[1, 1, 2, 3, 4]], spec=SPEC5),
            "self-adjoint": good,
        }
        args = () if tol is None else (tol,)
        verdicts = {}
        for name, pair in pairs.items():
            report = check_self_adjoint(pair, *args)
            verdicts[name] = report.ok
            if report.ok:
                recover_W(pair, *args)
                continue
            message = f"rank(A:B)={report.rank_AB} (need 5), gram residual {report.gram_residual:.3e}"
            with pytest.raises(NotSelfAdjoint, match=f"^{re.escape(message)}$"):
                recover_W(pair, *args)
        assert verdicts == {"gram": False, "nudged": tol is not None, "rank": False, "self-adjoint": True}

    @pytest.mark.parametrize("m", [*range(2, 14), 64, 65])
    def test_solve_route_matches_the_svd_route(self, count_svds, m):
        # Row mixers with singular values in [0.3, 3], as the benchmark draws them.
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(6100 + m)
        normalized = generate_random_pair(spec, m, target_unit_cosines=spec.n // 2)
        g = (haar_unitary(m, rng) * rng.uniform(0.3, 3.0, m)) @ haar_unitary(m, rng)
        pair = BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec)
        reference = svd_route_w(pair)
        check_self_adjoint(pair)
        calls = count_svds()
        w = recover_W(pair)
        assert calls == []
        assert np.max(np.abs(w - reference)) <= 1e-12
        assert unitarity_residual(w) <= 1e-14

    def test_singular_coefficients_fall_back_to_the_svd_route(self, count_svds, ill_conditioned_pair):
        assert check_self_adjoint(ill_conditioned_pair).ok
        calls = count_svds()
        with pytest.raises(RankDeficient, match="^eigenspace coefficient matrix is numerically singular$"):
            canonical_decompose(ill_conditioned_pair)
        assert calls == [(5, 5), (5, 5)]

    @pytest.mark.parametrize("m", [4, 5])
    def test_singular_p_that_passes_the_check_is_rank_deficient(self, count_svds, m):
        # (P : R) = (diag(1, .., 1, 0), diag(1, .., 1, 1e-5)) has Gram residual 1e-10 and full rank.
        # At m = 4 the computed P is exactly singular and the solve raises; at m = 5 it is not, and
        # X = P^-1 R is far from unitary.  Both fall back to the SVDs.
        spec = OrderSpec(m)
        v = eigenbasis(spec).V
        ones = [1.0] * (m - 1)
        ab = np.hstack([np.diag(ones + [0.0]), np.diag(ones + [1e-5])]) @ v.conj().T
        pair = BoundaryPair(A=ab[:, :m], B=ab[:, m:], spec=spec)
        assert check_self_adjoint(pair).ok
        calls = count_svds()
        with pytest.raises(RankDeficient):
            recover_W(pair)
        assert calls == [(m, m), (m, m)]

    @pytest.mark.parametrize("m", range(3, 14))
    def test_all_unit_cosines_recover_exactly_zero_off_diagonal_blocks(self, m):
        # test_criterion_08 reads numerical_rank(I - K K*) at k = n, which is
        # pure roundoff unless the CSD sees W exactly block diagonal.
        spec = OrderSpec.from_order(m)
        p, _ = spec.csd_partition
        for seed in range(4):
            w = canonical_decompose(generate_random_pair(spec, seed, target_unit_cosines=spec.n)).W
            assert not w[:p, p:].any() and not w[p:, :p].any()

    @pytest.mark.parametrize("m", range(3, 14))
    def test_sines_decided_zero_give_exactly_block_diagonal_w(self, m):
        # Row-mixed, W's off-diagonal blocks are roundoff, not zeros; the decision rank A = m - n zeroes them,
        # so the CSD takes its block-diagonal shortcut: u1 = u2 = I, and K is exact.
        spec = OrderSpec.from_order(m)
        p, q = spec.csd_partition
        rng = np.random.default_rng([m, 25])
        for seed in range(2):
            normalized = generate_random_pair(spec, seed, target_unit_cosines=spec.n)
            for cond in (1.0, 1e3, 1e6):
                g = (haar_unitary(m, rng) * np.logspace(0, -np.log10(cond), m)) @ haar_unitary(m, rng)
                form = canonical_decompose(BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec))
                assert form.rank == m - spec.n
                assert not form.W[:p, p:].any() and not form.W[p:, :p].any()
                assert np.array_equal(form.cs.u1, np.eye(p)) and np.array_equal(form.cs.u2, np.eye(q))
                assert np.array_equal(form.cs.cos, np.ones(spec.n)) and not form.cs.sin.any()
                assert unitarity_residual(form.W) <= 1e-14
            for cond in (1e9, 1e10):  # the check may refuse these; a pair it passes must still factor
                g = (haar_unitary(m, rng) * np.logspace(0, -np.log10(cond), m)) @ haar_unitary(m, rng)
                try:
                    form = canonical_decompose(BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec))
                except (NotSelfAdjoint, RankDeficient):
                    continue
                assert form.rank == m - spec.n
                assert form.cs.p == p and unitarity_residual(form.W) <= UNITARY_ABS

    @pytest.mark.parametrize("m", range(4, 10))
    def test_sines_decided_zero_stay_when_zeroing_could_break_unitarity(self, m):
        # Sines of 2e-5 lie under the cutoff 4 m eps kappa at kappa = 8e9, but zeroing them would move W*W - I
        # by 4e-10 > UNITARY_ABS: W keeps its blocks, and its CSD still runs.
        spec = OrderSpec.from_order(m)
        p, _ = spec.csd_partition
        rng = np.random.default_rng([m, 26])
        normalized = construct_from_W(_unitary_with_sines(spec, np.full(spec.n, 2e-5), rng), spec)
        g = (haar_unitary(m, rng) * np.logspace(0, -np.log10(8e9), m)) @ haar_unitary(m, rng)
        form = canonical_decompose(BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec))
        assert form.rank == m - spec.n
        assert form.W[:p, p:].any() and form.W[p:, :p].any()
        assert np.allclose(form.cs.sin, 2e-5, rtol=0.1) and unitarity_residual(form.W) <= UNITARY_ABS

    @pytest.mark.parametrize("m", [*range(2, 14), 64, 65])
    def test_newton_schulz_step_is_the_dense_expression(self, m):
        # W = X (1.5 I - 0.5 X*X) in every bit, the sign of each zero included.
        spec = OrderSpec.from_order(m)
        index = np.arange(m)
        pairs = [
            BoundaryPair.from_matrices(np.eye(m), np.eye(m)),
            BoundaryPair.from_matrices(np.diag(1.0 * (index < m - m // 2)), np.diag(1.0 * (index >= m // 2))),
            *(generate_random_pair(spec, seed, target_unit_cosines=spec.n) for seed in range(3)),
            generate_random_pair(spec, 3),
        ]
        for pair in pairs:
            x = np.linalg.solve(pair._coordinates[:, :m], pair._coordinates[:, m:])
            expected = x @ (1.5 * np.eye(m) - 0.5 * (x.conj().T @ x))
            w = recover_W(pair)
            assert np.array_equal(w, expected)
            assert np.array_equal(np.signbit(w.view(float)), np.signbit(expected.view(float)))


class TestCanonicalDecompose:
    def test_identity_coupling_order5(self):
        pair = construct_from_W(np.eye(5, dtype=complex), SPEC5)
        form = canonical_decompose(pair)
        assert np.allclose(form.cs.cos, [1.0, 1.0], atol=1e-12)
        assert np.allclose(form.cs.sin, [0.0, 0.0], atol=1e-12)
        assert form.null_count == 2
        assert form.predicted_rank_A == form.predicted_rank_B == 3
        assert form.classification is Classification.MIXED
        assert form.r == 0

    def test_coupled_example_order5(self):
        pair = construct_from_W(coupled_unitary_order5(), SPEC5)
        form = canonical_decompose(pair)
        assert np.allclose(form.cs.cos, [0.0, 0.0], atol=1e-12)
        assert form.null_count == 0
        assert form.predicted_rank_A == 5
        assert form.classification is Classification.COUPLED
        assert form.r == 2

    def test_identity_coupling_order3(self):
        pair = construct_from_W(np.eye(3, dtype=complex), SPEC3)
        form = canonical_decompose(pair)
        assert form.null_count == 1
        assert form.predicted_rank_A == 2
        assert (form.classification, form.r) == (Classification.MIXED, 0)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_reconstruction_matches_normalized_pair(self, m):
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(31 * m)
        for seed in range(8):
            pair = construct_from_W(random_unitary(m, 40 + seed), spec)
            g = conditioned_invertible(m, rng)
            moved = BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=spec)
            form = canonical_decompose(moved)
            normalized = construct_from_W(form.W, spec)
            assert np.linalg.norm(form.reconstruct() - normalized.stacked()) < 1e-9
            assert np.max(row_space_angles(form.reconstruct(), moved.stacked())) < 1e-8

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_factor_shapes(self, m):
        form = canonical_decompose(construct_from_W(random_unitary(m, 2), OrderSpec.from_order(m)))
        n = (m - 1) // 2
        assert form.Q1.shape == (m, m)
        assert form.core.shape == (m, 5 * n + 3)
        assert form.Q2.shape == (5 * n + 3, 2 * m)
        assert form.Q3.shape == (5 * n + 3, 2 * m)
        assert form.Q4.shape == (2 * m, 2 * m)
        assert form.K.shape == (n, n + 1)

    @pytest.mark.parametrize("m", range(2, 14))
    def test_form_follows_the_order(self, m):
        spec = OrderSpec.from_order(m)
        form = canonical_decompose(generate_random_pair(spec, m))
        assert type(form) is (CanonicalForm if spec.is_odd_order else EvenCanonicalForm)
        assert even_canonical_decompose is canonical_decompose

    def test_decisions_do_not_build_q4(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("factor built before it was read")

        monkeypatch.setattr("bccanon.forms.q4_matrix", refuse)
        monkeypatch.setattr("bccanon.forms.cs_decompose", refuse)
        for m in (5, 6, 7, 8):
            spec = OrderSpec.from_order(m)
            n = spec.n
            for k in range(n + 1):
                pair = generate_random_pair(spec, 3, target_unit_cosines=k)
                form = canonical_decompose(pair)
                if spec.is_odd_order:
                    assert (form.null_count, form.predicted_rank_A, form.predicted_rank_B) == (k, m - k, m - k)
                    expected = Classification.COUPLED if k == 0 else Classification.MIXED
                    assert form.r == n - k
                    factors = ("cs", "Q1", "core", "Q4", "Q3", "Q2", "K")
                else:
                    assert form.rank_S == n - k
                    expected = (Classification.SEPARATED if k == n
                                else Classification.COUPLED if k == 0 else Classification.MIXED)
                    factors = ("cs", "U", "middle", "right")
                assert form.classification is expected
                for name in factors:
                    with pytest.raises(RuntimeError):
                        getattr(form, name)

    @pytest.mark.parametrize("m", [5, 7])
    def test_factors_do_not_depend_on_read_order(self, m):
        pair = generate_random_pair(OrderSpec.from_order(m), 11, target_unit_cosines=1)
        names = ("Q1", "core", "Q4", "Q3", "Q2", "K")
        fresh = canonical_decompose(pair)
        expected = {name: getattr(fresh, name) for name in names}
        expected["reconstruct"] = fresh.reconstruct()
        form = canonical_decompose(pair)
        got = {"reconstruct": form.reconstruct()}
        got.update({name: getattr(form, name) for name in reversed(names)})
        for name, value in expected.items():
            assert got[name].tobytes() == value.tobytes(), name


class TestPredictedRanks:
    def test_full_sine_spectrum_keeps_full_rank(self):
        # cos = 0 everywhere: I - K K* = M M* has full rank n
        form = canonical_decompose(construct_from_W(coupled_unitary_order5(), SPEC5))
        assert (form.predicted_rank_A, form.predicted_rank_B, form.null_count) == (5, 5, 0)

    def test_unit_cosines_drop_rank(self):
        form = canonical_decompose(construct_from_W(np.eye(5, dtype=complex), SPEC5))
        assert (form.predicted_rank_A, form.predicted_rank_B, form.null_count) == (3, 3, 2)

    @pytest.mark.parametrize("m", [*range(2, 14), 64, 65])
    def test_agrees_with_svd_ranks(self, m):
        # Every layout of the corner blocks: even order, odd order with odd n and with even n;
        # generate_random_pair realizes every k at the large orders too.
        spec = OrderSpec.from_order(m)
        for t in range(max(8, spec.n + 1)):
            k = t % (spec.n + 1)
            pair = generate_random_pair(spec, 7100 + t, target_unit_cosines=k)
            form = canonical_decompose(pair)
            ranks = (numerical_rank(pair.A), numerical_rank(pair.B))
            assert ranks == (m - k, m - k) == (form.rank, form.rank)
            assert corner_block_ranks(form.W, spec) == ranks
            if spec.is_odd_order:
                assert (form.null_count, form.predicted_rank_A, form.predicted_rank_B) == (k, *ranks)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_block_rank_route_agrees(self, m):
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(7300 + m)
        for t in range(8):
            pair = generate_random_pair(spec, 7300 + t, target_unit_cosines=t % (spec.n + 1))
            # All cosines unit, row-mixed: the corner blocks of the recovered
            # W that should be zero hold roundoff only.
            unit = generate_random_pair(spec, 7400 + t, target_unit_cosines=spec.n)
            g = conditioned_invertible(m, rng)
            mixed = BoundaryPair(A=g @ unit.A, B=g @ unit.B, spec=spec)
            for form in (canonical_decompose(pair), canonical_decompose(mixed)):
                assert corner_block_ranks(form.W, spec) == (form.predicted_rank_A, form.predicted_rank_B)

    @staticmethod
    def _ill_mixed(seed):
        """A k = 2 pair at m = 5 mixed by the byte guard's ``ill-mixed-m5`` G, cond G = 1e8."""
        pair = generate_random_pair(SPEC5, seed, target_unit_cosines=2)
        rng = np.random.default_rng([5, 8])
        g = (haar_unitary(5, rng) * np.logspace(0, -8, 5)) @ haar_unitary(5, rng)
        return BoundaryPair(A=g @ pair.A, B=g @ pair.B, spec=SPEC5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_mixed_pair_passes_the_check(self, seed):
        assert check_self_adjoint(self._ill_mixed(seed)).ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_mixed_pair_keeps_its_rank(self, seed):
        assert canonical_decompose(self._ill_mixed(seed)).rank == 3


class TestClassify:
    def test_identity_coupling_is_mixed(self):
        form = canonical_decompose(construct_from_W(np.eye(5, dtype=complex), SPEC5))
        assert (form.classification, form.r) == (Classification.MIXED, 0)

    def test_antidiagonal_coupling_is_coupled(self):
        form = canonical_decompose(construct_from_W(coupled_unitary_order5(), SPEC5))
        assert (form.classification, form.r) == (Classification.COUPLED, 2)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_offset_range_and_rank_equality(self, m):
        spec = OrderSpec.from_order(m)
        for t in range(6):
            pair = generate_random_pair(spec, 8200 + t, target_unit_cosines=t % (spec.n + 1))
            form = canonical_decompose(pair)
            assert 0 <= form.r <= spec.n
            assert form.classification in (Classification.MIXED, Classification.COUPLED)
            assert numerical_rank(pair.A) == numerical_rank(pair.B)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(NotSelfAdjoint):
            canonical_decompose(BoundaryPair.from_matrices(np.eye(5), np.zeros((5, 5))))


class TestGenerateRandomPair:
    def test_deterministic_per_seed(self):
        a = generate_random_pair(SPEC5, 42)
        b = generate_random_pair(SPEC5, 42)
        assert a.A.tobytes() == b.A.tobytes()
        assert a.B.tobytes() == b.B.tobytes()

    def test_target_two_units_is_mixed_rank3(self):
        form = canonical_decompose(generate_random_pair(SPEC5, 5, target_unit_cosines=2))
        assert (form.classification, form.r) == (Classification.MIXED, 0)

    def test_target_zero_units_is_coupled(self):
        form = canonical_decompose(generate_random_pair(SPEC5, 5, target_unit_cosines=0))
        assert (form.classification, form.r) == (Classification.COUPLED, 2)

    def test_many_seeds_self_adjoint(self):
        spec = OrderSpec.from_order(7)
        worst = 0.0
        for seed in range(50):
            report = check_self_adjoint(generate_random_pair(spec, seed))
            assert report.ok
            worst = max(worst, report.gram_residual)
        assert worst < 1e-11

    def test_rejects_bad_target(self):
        from bccanon import InvalidTarget

        with pytest.raises(InvalidTarget):
            generate_random_pair(SPEC5, 1, target_unit_cosines=3)

    @pytest.mark.parametrize("m", [5, 6])
    @pytest.mark.parametrize("target", [None, 1])
    def test_rejects_negative_seed(self, m, target):
        from bccanon import InvalidTarget

        with pytest.raises(InvalidTarget, match="seed must be non-negative, got -1"):
            generate_random_pair(OrderSpec.from_order(m), -1, target_unit_cosines=target)


def _with_entry(value, at):
    a = np.eye(3, dtype=complex)
    a[at] = value
    return a


class TestFromMatricesErrors:
    """The error each malformed input to ``BoundaryPair.from_matrices`` raises."""

    @pytest.mark.parametrize(
        ("a", "b", "error", "message"),
        [
            (2.0, np.eye(3), ValueError, "expected a 2-d matrix, got ndim=0"),
            (np.ones(3), np.eye(3), ValueError, "expected a 2-d matrix, got ndim=1"),
            (np.ones((3, 3, 3)), np.eye(3), ValueError, "expected a 2-d matrix, got ndim=3"),
            (_with_entry(np.nan, (0, 1)), np.eye(3), ValueError, "matrix contains NaN or infinite entries"),
            (np.eye(3), _with_entry(np.inf, (2, 2)), ValueError, "matrix contains NaN or infinite entries"),
            (np.ones((3, 4)), np.ones((3, 4)), ValueError, "expected two 3 x 3 matrices, got (3, 4) and (3, 4)"),
            (np.eye(3), np.eye(4), ValueError, "expected two 3 x 3 matrices, got (3, 3) and (4, 4)"),
            (np.eye(1), np.eye(1), UnsupportedOrder, "odd order must be at least 3, got 1"),
        ],
        ids=["scalar", "1-d", "3-d", "nan-in-A", "inf-in-B", "non-square", "B-wrong-size", "order-1"],
    )
    def test_message(self, a, b, error, message):
        with pytest.raises(error, match=re.escape(message)):
            BoundaryPair.from_matrices(a, b)

    def test_nested_lists_accepted(self):
        rows = np.eye(3).tolist()
        pair = BoundaryPair.from_matrices(rows, rows)
        assert pair.spec == SPEC3
        assert pair.A.dtype == pair.B.dtype == np.complex128
        assert np.array_equal(pair.A, np.eye(3))

    @pytest.mark.parametrize("scale", [1e-315, 1e-320])
    def test_subnormal_pair_is_refused(self, scale):
        # Mixed, rank A = 4; at these scales its entries have lost about half their digits.
        pair = generate_random_pair(SPEC5, 1, target_unit_cosines=1)
        with pytest.raises(ValueError, match=re.escape("every entry is subnormal or zero (largest part ")):
            BoundaryPair.from_matrices(scale * pair.A, scale * pair.B)

    def test_zero_and_partly_subnormal_pairs_are_accepted(self):
        tiny = np.full((3, 3), 1e-320)
        assert not check_self_adjoint(BoundaryPair.from_matrices(np.zeros((3, 3)), np.zeros((3, 3)))).rank_ok
        BoundaryPair.from_matrices(tiny + np.diag([np.finfo(float).tiny, 0.0, 0.0]), tiny)
        BoundaryPair.from_matrices(tiny, 1j * np.finfo(float).tiny * np.eye(3))


class TestEigenspaceMeasurement:
    """The pair is measured once, as (P~ : R~) = (A : B) sqrt(2) V gathered with exact coefficients."""

    @given(m=st.sampled_from([*range(2, 18), 64, 65]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_residual_is_the_direct_one(self, m, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in "AB")
        c = symplectic_matrix(m)
        direct = np.linalg.norm(a @ c @ a.conj().T - b @ c @ b.conj().T)
        residual = check_self_adjoint(BoundaryPair.from_matrices(a, b)).gram_residual
        assert abs(residual - direct) <= 1e-13 * direct

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 64, 65, 128, 129])
    def test_exact_pairs_read_exactly_zero(self, m):
        # (I, I), and (diag(1, 0), diag(0, 1)) generalized: A keeps the first half of the rows, B the
        # second, and at odd order both keep the middle one.
        index = np.arange(m)
        for a, b in ((np.eye(m), np.eye(m)), (np.diag(1.0 * (index < m - m // 2)), np.diag(1.0 * (index >= m // 2)))):
            report = check_self_adjoint(BoundaryPair.from_matrices(a, b))
            assert (report.gram_residual, report.rank_AB, report.ok) == (0.0, m, True)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 17, 64, 65])
    def test_gather_is_one_rounding_from_the_dense_product(self, m):
        spec = OrderSpec(m)
        normalized = generate_random_pair(spec, m)
        g = conditioned_invertible(m, np.random.default_rng(m))
        pair = BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec)
        scaled_v = np.sqrt(2.0) * eigenbasis(spec).V
        dense = pair.stacked() @ scaled_v
        # One rounding of a sum of two terms: eps times the sum of their magnitudes.
        bound = np.finfo(float).eps * (np.abs(pair.stacked()) @ np.abs(scaled_v))
        assert pair._coordinates.shape == (m, 2 * m)
        assert np.all(np.abs(pair._coordinates - dense) <= bound)

    @pytest.mark.parametrize("m", [*range(2, 18), 64, 65])
    def test_dense_and_gathered_products_agree(self, m):
        # Below order 16 the product is a dense one with the exact coefficients; it must equal the gather.
        basis = eigenbasis(OrderSpec(m))
        rng = np.random.default_rng(m)
        x = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
        rows, coefficients = basis._rows, basis._coefficients
        gathered = x[:, rows[0]] * coefficients[0] + x[:, rows[1]] * coefficients[1]
        assert np.array_equal(basis._scaled_product(x), gathered)
        assert (basis._exact is None) is (m >= 16)

    @pytest.mark.parametrize("m", [*range(2, 18), 64, 65, 128, 129])
    def test_stacked_gram_products_equal_separate_ones(self, m):
        # Below order 16 the pair forms P~ P~* and R~ R~* in one matmul on a strided (2, m, m) view of its
        # coordinates; numpy must hand each to BLAS as it would the separate products, or the verdict's bits move.
        spec = OrderSpec(m)
        normalized = generate_random_pair(spec, m)
        g = conditioned_invertible(m, np.random.default_rng(m))
        pair = BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec)
        coordinates = pair._coordinates
        halves = coordinates.reshape(m, 2, m).transpose(1, 0, 2)
        stacked = halves @ halves.conj().transpose(0, 2, 1)
        p, r = coordinates[:, :m], coordinates[:, m:]
        separate = np.array([p @ p.conj().T, r @ r.conj().T])
        assert np.array_equal(stacked, separate)
        assert np.array_equal(np.signbit(stacked.view(float)), np.signbit(separate.view(float)))
        assert pair._criterion_numbers[0] == 0.5 * float(np.linalg.norm(separate[1] - separate[0]))

    @pytest.mark.parametrize("m", [5, 6])
    def test_recovery_reads_the_check_s_measurement(self, m):
        pair = generate_random_pair(OrderSpec(m), 3)
        check_self_adjoint(pair)
        coordinates = pair._coordinates
        form = canonical_decompose(pair)
        assert pair._coordinates is coordinates
        assert np.array_equal(form.P, coordinates[:, :m] / np.sqrt(2.0))


class TestMeasuredOnce:
    """A pair measures the criterion's numbers once; every verdict applies its own tolerance."""

    def test_loose_check_does_not_pass_a_later_decomposition(self):
        pair = generate_random_pair(SPEC5, 4)
        a = np.array(pair.A)
        a[1, 2] += 1e-5
        perturbed = BoundaryPair(A=a, B=pair.B, spec=SPEC5)
        loose = check_self_adjoint(perturbed, Tolerances(residual_abs=1e-3))
        assert loose.ok and 1e-8 < loose.gram_residual < 1e-3
        with pytest.raises(NotSelfAdjoint):
            canonical_decompose(perturbed)
        assert not check_self_adjoint(perturbed).ok

    def test_caller_writes_do_not_reach_the_pair(self):
        source = generate_random_pair(SPEC5, 2)
        a, b = np.array(source.A), np.array(source.B)
        pair = BoundaryPair(A=a, B=b, spec=SPEC5)
        before = check_self_adjoint(pair)
        kept = pair.A.copy()
        a[0, 0] += 1.0
        b[:] = 0.0
        assert np.array_equal(pair.A, kept) and np.array_equal(pair.B, source.B)
        assert check_self_adjoint(pair) == before and before.ok
        assert check_self_adjoint(BoundaryPair(A=a, B=b, spec=SPEC5)) != before

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_pair_matrices_are_read_only(self, name):
        pair = generate_random_pair(SPEC5, 2)
        with pytest.raises(ValueError):
            getattr(pair, name)[0, 0] = 0.0

    @pytest.mark.parametrize("m", range(2, 13))
    def test_check_then_decompose_matches_a_fresh_decomposition(self, m):
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(m)
        normalized = generate_random_pair(spec, m, target_unit_cosines=spec.n // 2)
        g = conditioned_invertible(m, rng)
        a, b = g @ normalized.A, g @ normalized.B
        checked = BoundaryPair(A=a, B=b, spec=spec)
        report = check_self_adjoint(checked)
        form = canonical_decompose(checked)
        fresh = canonical_decompose(BoundaryPair(A=a, B=b, spec=spec))
        assert report == check_self_adjoint(BoundaryPair(A=a, B=b, spec=spec))
        assert form.W.tobytes() == fresh.W.tobytes()
        assert form.classification is fresh.classification
        if spec.is_odd_order:
            assert (form.predicted_rank_A, form.predicted_rank_B, form.r, form.null_count) == (
                fresh.predicted_rank_A, fresh.predicted_rank_B, fresh.r, fresh.null_count
            )
        else:
            assert form.rank_S == fresh.rank_S
            assert form.P.tobytes() == fresh.P.tobytes()

    @pytest.mark.parametrize("m", [5, 6])
    def test_cs_core_is_built_once_and_read_only(self, monkeypatch, m):
        form = canonical_decompose(generate_random_pair(OrderSpec.from_order(m), 3))
        cs = form.cs
        calls = []
        build = csd.cs_core

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(csd, "cs_core", counting)
        for name in ("core", "K", "Q2") if m % 2 else ("middle", "right"):
            getattr(form, name)
        assert cs.core is cs.core and len(calls) == 1
        with pytest.raises(ValueError):
            cs.core[0, 0] = 0.0

    @pytest.mark.parametrize("m", [*range(2, 14), 64, 65])
    def test_check_then_decompose_runs_one_svd(self, count_svds, count_choleskys, count_solves, m):
        pair = generate_random_pair(OrderSpec.from_order(m), 3)
        calls, factorizations, solves = count_svds(), count_choleskys(), count_solves()
        check_self_adjoint(pair)
        canonical_decompose(pair)
        # One corner block for the rank.  rank (A : B) = m is certified by a
        # Cholesky of its Gram matrix, W is solved for by one LU solve, with
        # no SVD, and no rank of A or B is read.
        assert len(calls) == 1, calls
        assert factorizations == [(m, m)]
        assert solves == [(m, m)]

    @pytest.mark.parametrize("m", [5, 6])
    def test_second_check_runs_no_svd(self, count_svds, count_choleskys, m):
        pair = generate_random_pair(OrderSpec.from_order(m), 3)
        calls, factorizations = count_svds(), count_choleskys()
        first = check_self_adjoint(pair)
        assert (len(calls), len(factorizations)) == (0, 1), (calls, factorizations)
        second = check_self_adjoint(pair)
        assert (len(calls), len(factorizations)) == (0, 1), (calls, factorizations)
        canonical_decompose(pair)
        assert (len(calls), len(factorizations)) == (1, 1), (calls, factorizations)
        # == reads rank A and rank B: the pair's one stacked SVD of A and B.
        assert second == first
        assert (len(calls), len(factorizations)) == (2, 1), (calls, factorizations)

    @pytest.mark.parametrize("m", [5, 6])
    def test_reading_a_rank_runs_one_stacked_svd(self, count_svds, m):
        pair = generate_random_pair(OrderSpec.from_order(m), 3, target_unit_cosines=1)
        report = check_self_adjoint(pair)
        calls = count_svds()
        assert report.rank_A == m - 1
        assert calls == [(2, m, m)]
        assert report.rank_B == m - 1 and report.rank_A == m - 1
        assert check_self_adjoint(pair, Tolerances(residual_abs=0.5)).rank_B == m - 1
        assert calls == [(2, m, m)]

    def test_reports_that_differ_only_in_rank_a_and_rank_b_are_unequal(self):
        # Both read rank (A : B) = 2 and Gram residual 0.0; rank A is 2 and 1.
        full = check_self_adjoint(BoundaryPair.from_matrices(np.eye(2), np.eye(2)))
        split = check_self_adjoint(BoundaryPair.from_matrices(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert (full.rank_AB, full.gram_residual, full.ok) == (split.rank_AB, split.gram_residual, split.ok) == (2, 0.0, True)
        assert (full.rank_A, full.rank_B, split.rank_A, split.rank_B) == (2, 2, 1, 1)
        assert full != split and repr(full) != repr(split)

    def test_stacked_is_one_read_only_array(self):
        pair = generate_random_pair(SPEC5, 2)
        ab = pair.stacked()
        assert pair.stacked() is ab
        assert np.shares_memory(pair.A, ab) and np.shares_memory(pair.B, ab)
        assert np.array_equal(ab, np.hstack([pair.A, pair.B]))
        with pytest.raises(ValueError):
            ab[0, 0] = 0.0

    @pytest.mark.parametrize("m", range(2, 14))
    def test_reported_ranks_match_numerical_rank(self, m):
        # Every k from 0 (full rank) to n (rank A = m - n), through an invertible G.
        # The Gram bound moves the verdict, never the ranks.
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(900 + m)
        tols = (Tolerances(residual_abs=0.5), Tolerances(), Tolerances(residual_abs=1e-30))
        for k in range(spec.n + 1):
            normalized = generate_random_pair(spec, 9100 + k, target_unit_cosines=k)
            g = conditioned_invertible(m, rng)
            pair = BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec)
            ranks = (numerical_rank(pair.A), numerical_rank(pair.B))
            assert ranks == (m - k, m - k)
            reports = [check_self_adjoint(pair, tol) for tol in tols]
            assert [(r.rank_A, r.rank_B) for r in reports] == [ranks] * 3
            assert [r.gram_ok for r in reports] == [True, True, False]

    @given(
        m=st.integers(2, 9),
        kind=st.sampled_from(["self-adjoint", "row-mixed", "random"]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.permutations(["rank_A", "rank_B", "decompose", "recheck"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranks_match_numerical_rank_in_every_read_order(self, m, kind, seed, steps):
        # Reads before and after the decomposition, and on a second report under another tolerance.
        spec = OrderSpec.from_order(m)
        rng = np.random.default_rng(seed)
        if kind == "random":
            # A and B of random ranks, so that rank A and rank B differ in general.
            def gauss(*shape):
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

            a, b = (gauss(m, r) @ gauss(r, m) for r in rng.integers(0, m + 1, 2))
        else:
            normalized = generate_random_pair(spec, seed, target_unit_cosines=int(rng.integers(spec.n + 1)))
            g = conditioned_invertible(m, rng) if kind == "row-mixed" else np.eye(m)
            a, b = g @ normalized.A, g @ normalized.B
        pair = BoundaryPair(A=a, B=b, spec=spec)
        expected = {"rank_A": numerical_rank(pair.A), "rank_B": numerical_rank(pair.B)}
        reports = [check_self_adjoint(pair)]
        for step in steps:
            if step == "decompose":
                if kind == "random":
                    with pytest.raises(NotSelfAdjoint):
                        canonical_decompose(pair)
                else:
                    canonical_decompose(pair)
            elif step == "recheck":
                reports.append(check_self_adjoint(pair, Tolerances(residual_abs=0.5)))
            else:
                assert getattr(reports[-1], step) == expected[step]
        assert [(r.rank_A, r.rank_B) for r in reports] == [(expected["rank_A"], expected["rank_B"])] * 2


def _unitary_with_sines(spec, sin, rng):
    """W = blockdiag(u1, u2) @ core @ blockdiag(v1, v2) with the given sines and Haar corners."""
    p, q = spec.csd_partition
    u1, u2, v1, v2 = (haar_unitary(size, rng) for size in (p, q, p, q))
    return cs_reconstruct(CsFactors(p, q, u1, u2, v1, v2, np.sqrt(1.0 - sin**2), sin))


class TestFixedCutoffs:
    """Ranks and unitarity are decided by the constants RANK_REL and UNITARY_ABS; no caller sets them."""

    @pytest.mark.parametrize(
        "name", ["construct_from_W", "construct_even_from_W", "cs_decompose", "numerical_rank"]
    )
    def test_no_tol_parameter(self, name):
        assert "tol" not in inspect.signature(getattr(bccanon, name)).parameters

    @pytest.mark.parametrize("m", [5, 6])
    def test_form_fields(self, m):
        form = canonical_decompose(generate_random_pair(OrderSpec.from_order(m), 1))
        assert [f.name for f in dataclasses.fields(form)] == ["spec", "W", "P", "rank"]

    @pytest.mark.parametrize("m", [5, 6])
    def test_block_ranks_cut_at_rank_rel(self, m):
        # One sine below the cutoff is one unit cosine: rank A = rank B = m - 1.
        spec = OrderSpec.from_order(m)
        others = np.random.default_rng(m).uniform(0.2, 0.9, spec.n - 1)
        ranks = [
            corner_block_ranks(_unitary_with_sines(spec, np.array([sine, *others]), np.random.default_rng(m)), spec)
            for sine in (0.5 * RANK_REL, 2.0 * RANK_REL)
        ]
        assert ranks == [(m - 1, m - 1), (m, m)]

    def test_unitarity_cut_at_unitary_abs(self):
        u = random_unitary(5, 8)
        near, far = (u * np.sqrt(1.0 + np.array([f * UNITARY_ABS, 0, 0, 0, 0])) for f in (0.5, 2.0))
        construct_from_W(near, SPEC5)
        csd.cs_decompose(near, 3, 2)
        errors = []
        for build in (lambda: construct_from_W(far, SPEC5), lambda: csd.cs_decompose(far, 3, 2)):
            with pytest.raises(NotUnitary) as info:
                build()
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].endswith(f"exceeds {UNITARY_ABS:.3e}")
