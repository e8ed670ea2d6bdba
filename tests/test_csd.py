"""Tests for the CS decomposition wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from bccanon import (
    NotUnitary,
    PartitionMismatch,
    cs_core,
    cs_decompose,
    cs_reconstruct,
    haar_unitary,
    random_unitary,
    unitarity_residual,
)


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
            assert np.all(np.diff(f.cos) <= 1e-15)
            assert np.all(f.cos >= 0.0) and np.all(f.cos <= 1.0)
            assert np.all(f.sin >= 0.0) and np.all(f.sin <= 1.0)
            assert np.allclose(f.cos, _block_svd_cosines(w, p, q), atol=1e-10)

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
