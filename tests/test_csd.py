"""Tests for the CS decomposition, with scipy's cossin as a test-only oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cossin

from bccanon import (
    ConvergenceFailure,
    NotUnitary,
    PartitionMismatch,
    cs_core,
    cs_decompose,
    cs_reconstruct,
    haar_unitary,
    random_unitary,
    unitarity_residual,
)
from bccanon.forms import _k_matrix


def _block_svd_cosines(w, p, q):
    """Independent oracle: singular values of W11, structural units dropped."""
    sigma = np.sort(np.linalg.svd(w[:p, :p], compute_uv=False))[::-1]
    return sigma[max(p - q, 0):]


class TestCsCore:
    def test_identity_angles(self):
        core = cs_core(2, 3, np.ones(2), np.zeros(2))
        expected = np.eye(5, dtype=complex)
        assert np.array_equal(core, expected)

    def test_all_sine_is_permuted_block_matrix(self):
        # cos = 0: [0 0 I; 0 1 0; -I 0 0]
        k = 2
        core = cs_core(3, 2, np.zeros(k), np.ones(k))
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 3] = expected[1, 4] = 1.0
        expected[2, 2] = 1.0
        expected[3, 0] = expected[4, 1] = -1.0
        assert np.array_equal(core, expected)

    def test_balanced_rotation(self):
        theta = 0.3
        core = cs_core(1, 1, np.array([np.cos(theta)]), np.array([np.sin(theta)]))
        expected = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        assert np.allclose(core, expected)

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (2, 3)])
    def test_minus_s_block_zeros_are_negative(self, p, q):
        # The serialized core and middle factors are slices of this matrix.
        core = cs_core(p, q, np.array([1.0, 0.6]), np.array([0.0, 0.8]))
        assert np.all(np.signbit(core[p:, :p].real))

    def test_bad_partition(self):
        with pytest.raises(PartitionMismatch):
            cs_core(4, 2, np.ones(2), np.zeros(2))

    def test_wrong_angle_count(self):
        with pytest.raises(PartitionMismatch, match=r"^need 2 angles for partition \(2, 3\)$"):
            cs_core(2, 3, [1.0], [0.0])


class TestCsDecompose:
    def test_identity(self):
        f = cs_decompose(np.eye(5, dtype=complex), 2, 3)
        assert np.allclose(f.cos, [1.0, 1.0])
        assert np.allclose(f.sin, [0.0, 0.0])
        assert np.max(np.abs(cs_reconstruct(f) - np.eye(5))) < 1e-12

    def test_two_by_two_rotation(self):
        theta = 0.3
        w = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]], dtype=complex)
        f = cs_decompose(w, 1, 1)
        assert f.cos[0] == pytest.approx(np.cos(theta), abs=1e-14)
        assert f.sin[0] == pytest.approx(np.sin(theta), abs=1e-14)
        assert np.max(np.abs(cs_reconstruct(f) - w)) < 1e-12

    @pytest.mark.parametrize("m, p, q", [(3, 2, 1), (5, 2, 3), (5, 3, 2), (7, 4, 3), (9, 4, 5), (4, 2, 2), (6, 3, 3)])
    def test_round_trip_and_contracts(self, m, p, q):
        for seed in range(10):
            w = random_unitary(m, 1000 * m + seed)
            f = cs_decompose(w, p, q)
            assert np.linalg.norm(cs_reconstruct(f) - w) < 1e-10
            for corner in (f.u1, f.u2, f.v1, f.v2):
                assert unitarity_residual(corner) < 1e-10
            assert np.max(np.abs(f.cos**2 + f.sin**2 - 1.0)) < 1e-12
            assert np.all(np.diff(f.cos) <= 0.0)
            assert np.all(f.cos >= 0.0) and np.all(f.cos <= 1.0)
            assert np.all(f.sin >= 0.0) and np.all(f.sin <= 1.0)
            assert np.allclose(f.cos, _block_svd_cosines(w, p, q), atol=1e-10)

    def test_svd_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        w = random_unitary(5, 3)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure, match="^SVD did not converge$"):
            cs_decompose(w, 2, 3)

    def test_clustered_angles_round_trip(self):
        # repeated cosines, exact ones and exact zeros in one spectrum
        cos = np.array([1.0, 0.5, 0.5, 0.0])
        sin = np.sqrt(1.0 - cos**2)
        rng = np.random.default_rng(77)
        w = (
            block_diag(haar_unitary(5, rng), haar_unitary(4, rng))
            @ cs_core(5, 4, cos, sin)
            @ block_diag(haar_unitary(5, rng), haar_unitary(4, rng))
        )
        f = cs_decompose(w, 5, 4)
        assert np.linalg.norm(cs_reconstruct(f) - w) < 1e-10
        assert np.allclose(np.sort(f.cos), np.sort(cos), atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            cs_decompose(2.0 * np.eye(4), 2, 2)

    @pytest.mark.parametrize("p, q", [(3, 3), (4, 1), (1, 4), (2, 4)])
    def test_rejects_bad_partition(self, p, q):
        w = np.eye(5, dtype=complex)
        with pytest.raises(PartitionMismatch):
            cs_decompose(w, p, q)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), first_larger=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, n, first_larger):
        m = 2 * n + 1
        p, q = (n + 1, n) if first_larger else (n, n + 1)
        w = random_unitary(m, seed)
        f = cs_decompose(w, p, q)
        assert np.linalg.norm(cs_reconstruct(f) - w) < 1e-9
        assert np.allclose(f.cos, _block_svd_cosines(w, p, q), atol=1e-10)


def _partitions(m):
    """Every (p, q) partition of order m: (n+1, n) and (n, n+1) when m is odd."""
    n = m // 2
    return [(n + 1, n), (n, n + 1)] if m % 2 else [(n, n)]


def _with_sines(p, q, sin, rng):
    """A unitary W whose CS angles have the given sines, with Haar corners."""
    sin = np.sort(sin)
    core = cs_core(p, q, np.sqrt(1.0 - sin**2), sin)
    return block_diag(haar_unitary(p, rng), haar_unitary(q, rng)) @ core @ block_diag(haar_unitary(p, rng), haar_unitary(q, rng))


def _oracle_sines(w, p):
    """Ascending sines from LAPACK's simultaneous-angle CSD."""
    _, theta, _ = cossin(w, p=p, q=p, separate=True)
    return np.sort(np.sin(theta))


def _sweep_cases(m, rng):
    """(label, p, q, W): Haar W, unit cosines, repeated cosines and a cluster straddling 1/sqrt(2)."""
    for p, q in _partitions(m):
        k = min(p, q)
        yield "haar", p, q, haar_unitary(m, rng)
        for units in sorted({1, k // 2, k}):
            sin = np.concatenate((np.zeros(units), rng.uniform(0.0, 1.0, k - units)))
            yield f"{units} unit cosines", p, q, _with_sines(p, q, sin, rng)
        yield "repeated cosines", p, q, _with_sines(p, q, np.repeat(rng.uniform(0.0, 1.0, 2), [k // 2, k - k // 2]), rng)
        for width in (1e-3, 0.0):  # 0.0: one cosine, repeated, that roundoff splits at 1/sqrt(2)
            yield f"cluster at 1/sqrt(2), width {width}", p, q, _with_sines(p, q, np.sqrt(0.5) + width * np.linspace(-1.0, 1.0, k), rng)


class TestAgainstCossin:
    """The two-SVD decomposition against scipy.linalg.cossin over m = 3..65 and every partition."""

    @pytest.mark.parametrize("m", range(3, 66))
    def test_sweep(self, m):
        rng = np.random.default_rng(m)
        for label, p, q, w in _sweep_cases(m, rng):
            f = cs_decompose(w, p, q)
            assert np.linalg.norm(cs_reconstruct(f) - w) <= 1e-13 * m, (label, p, q)
            assert np.max(np.abs(f.sin - _oracle_sines(w, p))) <= 2e-14, (label, p, q)
            assert max(unitarity_residual(x) for x in (f.u1, f.u2, f.v1, f.v2)) <= 1e-14, (label, p, q)
            assert np.all(np.diff(f.cos) <= 0.0), (label, p, q)

    def test_tiny_sine_no_less_accurate(self):
        # One sine 10^-e among sines in (0.01, 1): the worst relative error
        # at each e, over every order and partition, against cossin's.
        rng = np.random.default_rng(2024)
        ours = {e: 0.0 for e in range(3, 16)}
        oracle = dict(ours)
        for m in range(3, 66):
            for p, q in _partitions(m):
                for e in ours:
                    tiny = 10.0**-e
                    w = _with_sines(p, q, np.append(rng.uniform(0.01, 1.0, min(p, q) - 1), tiny), rng)
                    f = cs_decompose(w, p, q)
                    assert np.linalg.norm(cs_reconstruct(f) - w) <= 1e-13 * m
                    ours[e] = max(ours[e], abs(f.sin[0] / tiny - 1.0))
                    oracle[e] = max(oracle[e], abs(_oracle_sines(w, p)[0] / tiny - 1.0))
        assert all(ours[e] <= oracle[e] for e in ours), (ours, oracle)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9, 20, 21])
    def test_block_diagonal_w_keeps_identity_corners(self, m):
        rng = np.random.default_rng(m)
        for p, q in _partitions(m):
            w11, w22 = haar_unitary(p, rng), haar_unitary(q, rng)
            f = cs_decompose(block_diag(w11, w22), p, q)
            assert np.array_equal(f.u1, np.eye(p)) and np.array_equal(f.u2, np.eye(q))
            assert np.array_equal(f.cos, np.ones(min(p, q))) and np.array_equal(f.sin, np.zeros(min(p, q)))
            assert np.array_equal(cs_reconstruct(f), block_diag(w11, w22))
            if m % 2:
                k = _k_matrix(f)
                assert not np.any(np.eye(min(p, q)) - k @ k.conj().T)


def _adversarial_sines(k, rng):
    """(label, sines): repeated, zero and unit sines, and sines at 1/sqrt(2) and at the split's edges."""
    half = np.sqrt(0.5)
    edges = (np.array([0.5, np.sqrt(0.75)])[:, None] + np.array([-1e-12, 0.0, 1e-12])).ravel()
    yield "zero", np.zeros(k)
    yield "unit", np.ones(k)
    yield "half zero", np.concatenate((np.zeros(k // 2), rng.uniform(0.0, 1.0, k - k // 2)))
    yield "repeated", np.full(k, rng.uniform(0.0, 1.0))
    yield "two repeated", np.repeat(rng.uniform(0.0, 1.0, 2), [k // 2, k - k // 2])
    yield "1/sqrt(2)", np.full(k, half)
    yield "1/sqrt(2) +- 1e-12", half + 1e-12 * np.linspace(-1.0, 1.0, k)
    yield "split edges", np.resize(edges, k)
    yield "split edges among others", np.concatenate((np.resize(edges, k // 2), rng.uniform(0.0, 1.0, k - k // 2)))
    yield "near 0 and 1", np.resize([1e-12, 1.0 - 1e-12, 0.0, 1.0], k)


class TestOrderedWithoutSort:
    """The split at the widest gap emits the cosines in order; cs_decompose sorts nothing."""

    @pytest.mark.parametrize("m", [*range(2, 18), 64, 65])
    def test_cosines_non_increasing_and_w_reconstructed(self, m):
        rng = np.random.default_rng(7000 + m)
        for p, q in _partitions(m):
            cases = [(f"haar {i}", haar_unitary(m, rng)) for i in range(3)]
            cases += [(label, _with_sines(p, q, sin, rng)) for label, sin in _adversarial_sines(min(p, q), rng)]
            for label, w in cases:
                f = cs_decompose(w, p, q)
                assert np.all(np.diff(f.cos) <= 0.0), (label, p, q, f.cos)
                assert np.linalg.norm(cs_reconstruct(f) - w) <= 1e-13 * m, (label, p, q)


class TestCsReconstruct:
    def test_identity_core_and_corners(self):
        from bccanon.csd import CsFactors

        f = CsFactors(
            p=2,
            q=2,
            u1=np.eye(2, dtype=complex),
            u2=np.eye(2, dtype=complex),
            v1=np.eye(2, dtype=complex),
            v2=np.eye(2, dtype=complex),
            cos=np.ones(2),
            sin=np.zeros(2),
        )
        assert np.array_equal(cs_reconstruct(f), np.eye(4, dtype=complex))

    def test_all_sine_identity_corners(self):
        from bccanon.csd import CsFactors

        f = CsFactors(
            p=3,
            q=2,
            u1=np.eye(3, dtype=complex),
            u2=np.eye(2, dtype=complex),
            v1=np.eye(3, dtype=complex),
            v2=np.eye(2, dtype=complex),
            cos=np.zeros(2),
            sin=np.ones(2),
        )
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 3] = expected[1, 4] = 1.0
        expected[2, 2] = 1.0
        expected[3, 0] = expected[4, 1] = -1.0
        assert np.array_equal(cs_reconstruct(f), expected)

    def test_reconstruction_is_unitary(self):
        w = random_unitary(7, 4)
        f = cs_decompose(w, 4, 3)
        assert unitarity_residual(cs_reconstruct(f)) < 1e-10
