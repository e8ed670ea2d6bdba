"""Tests for the dense linear-algebra kernels."""

import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bccanon import (
    BoundaryPair,
    OrderSpec,
    Tolerances,
    check_self_adjoint,
    generate_random_pair,
    haar_unitary,
    numerical_rank,
    random_unitary,
    row_space_angles,
    unitarity_residual,
)
from bccanon import linalg
from bccanon.linalg import RANK_REL, UNITARY_ABS, relative_rank, unit_rank


class TestTolerances:
    def test_defaults(self):
        assert Tolerances().residual_abs == 1e-8
        assert [f.name for f in fields(Tolerances)] == ["residual_abs"]
        assert RANK_REL == UNITARY_ABS == 1e-10

    @pytest.mark.parametrize("field", ["rank_rel", "unitary_abs"])
    def test_fixed_cutoffs_are_not_settable(self, field):
        with pytest.raises(TypeError):
            Tolerances(**{field: 1e-6})

    @pytest.mark.parametrize("field", ["residual_abs"])
    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValueError):
            Tolerances(**{field: bad})


class TestUnitarityResidual:
    def test_identity(self):
        assert unitarity_residual(np.eye(4)) == 0.0

    def test_scaled_identity(self):
        # (2I)*(2I) = 4I, so the diagonal deviates by 3
        assert unitarity_residual(2.0 * np.eye(2)) == pytest.approx(3.0)

    def test_generated_unitaries(self):
        for seed in range(20):
            assert unitarity_residual(random_unitary(6, seed)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            unitarity_residual(np.zeros((2, 3)))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_threshold_rule(self):
        # 1e-16 < 1e-10 * 1, so the second singular value is cut
        assert numerical_rank(np.diag([1.0, 1e-16])) == 1

    def test_zero(self):
        assert numerical_rank(np.zeros((4, 4))) == 0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (64, 64)])
    def test_empty_and_zero_matrices_have_rank_zero(self, shape):
        assert numerical_rank(np.zeros(shape)) == 0

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_relative_rank_of_no_values_or_zeros_is_zero(self, size):
        assert relative_rank(np.zeros(size)) == 0

    def test_self_adjoint_pair_has_full_row_rank(self):
        from bccanon import OrderSpec, construct_from_W

        pair = construct_from_W(random_unitary(5, 3), OrderSpec.from_order(5))
        assert numerical_rank(pair.stacked()) == 5

    @given(seed=st.integers(0, 2**31), rank=st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_unitary_invariance(self, seed, rank):
        rng = np.random.default_rng(seed)
        m = np.zeros((6, 6), dtype=complex)
        for _ in range(rank):
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            m += np.outer(u, v)
        left = random_unitary(6, seed + 1)
        right = random_unitary(6, seed + 2)
        base = numerical_rank(m)
        assert numerical_rank(left @ m) == base
        assert numerical_rank(m @ right) == base
        assert numerical_rank(left @ m @ right) == base


class TestRandomUnitary:
    def test_one_by_one_has_unit_modulus(self):
        u = random_unitary(1, 123)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = random_unitary(5, 42)
        b = random_unitary(5, 42)
        assert a.tobytes() == b.tobytes()

    def test_many_seeds_unitary(self):
        worst = max(unitarity_residual(random_unitary(7, seed)) for seed in range(100))
        assert worst < 1e-12

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            random_unitary(0, 1)


class TestRowSpaceAngles:
    def test_row_equivalent_matrices(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        g = random_unitary(4, 9) @ np.diag([0.5, 1.0, 2.0, 3.0])
        assert np.max(row_space_angles(m, g @ m)) < 1e-12

    def test_orthogonal_rows(self):
        a = np.eye(2, 4)
        b = np.zeros((2, 4))
        b[0, 2] = b[1, 3] = 1.0
        assert np.min(row_space_angles(a, b)) == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("m", [3, 64, 201])
    def test_matches_svd_basis_reference(self, m):
        rng = np.random.default_rng(m)
        x = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
        tilt = 0.1 * (rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m)))

        def mixed(y):
            return random_unitary(m, rng.integers(2**31)) @ np.diag(rng.uniform(0.5, 2.0, m)) @ y

        def reference(m1, m2):  # orthonormal row bases from full SVDs
            q1 = np.linalg.svd(m1, full_matrices=False)[2]
            q2 = np.linalg.svd(m2, full_matrices=False)[2]
            sines = np.linalg.svd(q2 - (q2 @ q1.conj().T) @ q1, compute_uv=False)
            return np.sort(np.arcsin(np.clip(sines, -1.0, 1.0)))

        for m1, m2 in ((mixed(x), mixed(x)), (mixed(x), mixed(x + tilt))):
            angles = row_space_angles(m1, m2)
            assert angles.shape == (m,)
            assert np.max(np.abs(angles - reference(m1, m2))) <= 1e-13


needs_openblas = pytest.mark.skipif(linalg._openblas_threads() is None, reason="numpy's OpenBLAS not found")


def _square(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


class TestSerialSvdScope:
    @needs_openblas
    def test_restores_the_callers_count(self):
        get, _ = linalg._openblas_threads()
        before = get()
        linalg._svdvals(_square(128, 0))
        assert get() == before

    @needs_openblas
    def test_restores_the_count_when_the_svd_raises(self, monkeypatch):
        get, _ = linalg._openblas_threads()
        before = get()
        seen = []

        def failing(*args, **kwargs):
            seen.append(get())
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._svdvals(_square(128, 1))
        assert seen == [1]
        assert get() == before

    @pytest.mark.parametrize("shape", [(63, 63), (2, 63, 63), (63, 128), (5, 10)])
    def test_below_the_gate_never_sets_the_count(self, monkeypatch, shape):
        sets = []

        def spy(n):
            sets.append(n)

        monkeypatch.setattr(linalg, "_openblas_threads", lambda: (lambda: 2, spy))
        x = np.ones(shape, dtype=complex)
        assert np.array_equal(linalg._svdvals(x), np.linalg.svd(x, compute_uv=False))
        assert sets == []

    @pytest.mark.parametrize("m", [64, 128])
    def test_without_openblas_the_values_are_the_plain_svd(self, monkeypatch, m):
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
        x = np.stack((_square(m, 2), _square(m, 3)))
        assert np.array_equal(linalg._svdvals(x), np.linalg.svd(x, compute_uv=False))

    @pytest.mark.parametrize("missing", ["directory", "library"])
    def test_no_loadable_openblas_gives_the_plain_call(self, monkeypatch, missing):
        def fail(*args):
            raise OSError("not found")

        if missing == "directory":
            monkeypatch.setattr(linalg.os, "listdir", fail)
        else:
            monkeypatch.setattr(linalg.os, "listdir", lambda path: ["libscipy_openblas64_-missing.so"])
            monkeypatch.setattr(linalg.ctypes, "CDLL", fail)
        x = _square(64, 7)
        linalg._openblas_threads.cache_clear()
        try:
            assert linalg._openblas_threads() is None
            assert np.array_equal(linalg._svdvals(x), np.linalg.svd(x, compute_uv=False))
        finally:
            linalg._openblas_threads.cache_clear()

    @needs_openblas
    def test_concurrent_callers_leave_the_count_unchanged(self):
        get, _ = linalg._openblas_threads()
        before = get()
        x = _square(128, 4)
        errors = []

        def work():
            try:
                for _ in range(5):
                    linalg._svdvals(x)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert get() == before

    @pytest.mark.parametrize("m", [64, 128, 201])
    def test_ranks_match_the_plain_svd(self, m):
        rng = np.random.default_rng(m)
        w = random_unitary(m, m)
        low = _square(m, 5)[:, : m // 2] @ _square(m, 6)[: m // 2, :]
        for x in (w, low, np.vstack([w[: m // 3], np.zeros((m - m // 3, m))])):
            x = x * rng.uniform(0.5, 2.0)
            plain = np.linalg.svd(x, compute_uv=False)
            assert relative_rank(linalg._svdvals(x)) == relative_rank(plain)
            assert numerical_rank(x) == relative_rank(plain)
            assert unit_rank(x) == int(np.count_nonzero(plain > RANK_REL))


def _wide(m: int, kind: str, exponent: int, rng: np.random.Generator) -> np.ndarray:
    """An m x 2m matrix of the given kind, scaled by 10**exponent."""

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "zero":
        x = np.zeros((m, 2 * m), dtype=complex)
    elif kind == "full":
        x = gauss(m, 2 * m)
    elif kind == "deficient":
        r = int(rng.integers(0, m))
        x = gauss(m, r) @ gauss(r, 2 * m)
    else:
        if kind == "graded":
            sigma = 10.0 ** rng.uniform(-14, 0, m)
        else:  # one singular value inside the band around the cutoff
            sigma = rng.uniform(0.1, 1.0, m)
            sigma[0], sigma[-1] = 1.0, 10.0 ** rng.uniform(-11, -9)
        x = (haar_unitary(m, rng) * sigma) @ haar_unitary(2 * m, rng)[:m]
    return x * 10.0**exponent


def _row_rank(x: np.ndarray) -> int:
    """linalg._row_rank(x, x x*), the Gram matrix formed as the pair forms its own: overflow reads inf, unwarned.

    When the SVD ran, the values it returns must be the values-only SVD's.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the context _row_rank leaves to its caller
        gram = x @ x.conj().T
        rank, sigma = linalg._row_rank(x, gram)
    assert sigma is None or np.array_equal(sigma, linalg._svdvals(x))
    return rank


class TestRowRank:
    """linalg._row_rank certifies full row rank by a shifted Cholesky and otherwise reads the SVD."""

    kinds = st.sampled_from(["full", "deficient", "zero", "graded", "band"])
    exponents = st.sampled_from([0, 8, -8, 150, -150, 200, -200])

    @given(m=st.integers(1, 13), kind=kinds, exponent=exponents, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_svd_rule(self, m, kind, exponent, seed):
        x = _wide(m, kind, exponent, np.random.default_rng(seed))
        assert _row_rank(x) == relative_rank(np.linalg.svd(x, compute_uv=False))

    @given(m=st.sampled_from([64, 129]), kind=kinds, exponent=exponents, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_svd_rule_at_large_m(self, m, kind, exponent, seed):
        x = _wide(m, kind, exponent, np.random.default_rng(seed))
        assert _row_rank(x) == relative_rank(np.linalg.svd(x, compute_uv=False))

    @pytest.mark.parametrize("ratio", [1e-9, 1e-7])
    def test_margin_below_the_shift_reaches_the_svd(self, count_svds, count_choleskys, ratio):
        # (A : B) of a normalized pair has orthogonal rows of equal norm, so mixing it by G gives
        # sigma_m / sigma_1 = 1 / cond G.  At 1e-7 the Gram matrix factors without the shift, so
        # this fails when the shift is not applied.
        spec = OrderSpec(5)
        normalized = generate_random_pair(spec, 7)
        rng = np.random.default_rng(7)
        g = (haar_unitary(5, rng) * np.logspace(0, np.log10(ratio), 5)) @ haar_unitary(5, rng)
        pair = BoundaryPair(A=g @ normalized.A, B=g @ normalized.B, spec=spec)
        calls, factorizations = count_svds(), count_choleskys()
        report = check_self_adjoint(pair)
        assert report.rank_AB == 5 and report.ok
        assert calls == [(5, 10)] and factorizations == [(5, 5)]
