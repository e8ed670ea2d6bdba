"""Tests for the fixed structural matrices."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from bccanon import (
    BoundaryPair,
    OrderSpec,
    UnsupportedOrder,
    canonical_decompose,
    check_self_adjoint,
    eigenbasis,
    even_order_Z,
    generate_random_pair,
    q4_matrix,
    symplectic_matrix,
    unitarity_residual,
)

# Signed antidiagonal of order 5, written out entry by entry.
C5_EXPECTED = np.array(
    [
        [0, 0, 0, 0, -1],
        [0, 0, 0, 1, 0],
        [0, 0, -1, 0, 0],
        [0, 1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def _fields_by_formula(m):
    """(n, case, CS partition) by cases: m = 2n+1 split on the parity of n, or m = 2n."""
    if m % 2 == 1:
        n = (m - 1) // 2
        return (n, "ODD_N", (n + 1, n)) if n % 2 == 1 else (n, "EVEN_N", (n, n + 1))
    n = m // 2
    return n, "EVEN_ORDER", (n, n)


def _same_bits(a, b):
    """Equal values, with the same sign on every zero part."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _displayed_factor_product(n):
    """Z as the product of its two displayed factors: the 1/sqrt(2) butterflies and the phase blocks."""
    eye = np.eye(n, dtype=complex)
    butterfly = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
    kappa = (-1.0) ** (n + 1) * 1j
    phase = block_diag(eye, kappa * symplectic_matrix(n), eye, kappa * symplectic_matrix(n))
    return block_diag(butterfly, butterfly) @ phase


def _scanned_tables(v):
    """(dense sqrt(2) V, rows, coefficients) by scans of the whole V: first and last nonzero row per column."""
    scaled = np.sqrt(2.0) * v
    exact = np.where(np.abs(v) == 1.0, scaled, np.round(scaled))
    nonzero = v != 0
    columns = np.arange(v.shape[1])
    first = np.argmax(nonzero, axis=0)
    last = v.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    coefficients = np.array([exact[first, columns], np.where(last > first, exact[last, columns], 0.0)])
    return exact, np.array([first, last]), coefficients


def _case_id(m):
    # The ids name the case as the deleted Parity enum did, so they stay stable.
    n, case, _ = _fields_by_formula(m)
    return f"{m}-{n}-Parity.{case}"


class TestOrderSpec:
    @pytest.mark.parametrize("m", range(2, 41), ids=_case_id)
    def test_from_order(self, m):
        n, _, partition = _fields_by_formula(m)
        spec = OrderSpec.from_order(m)
        assert (spec.m, spec.n, spec.is_odd_order, spec.csd_partition) == (m, n, m % 2 == 1, partition)
        assert spec == OrderSpec(m) and hash(spec) == hash(OrderSpec(m))

    def test_rejects_too_small(self):
        with pytest.raises(UnsupportedOrder, match="odd order must be at least 3, got 1"):
            OrderSpec.from_order(1)
        with pytest.raises(UnsupportedOrder, match="even order must be at least 2, got 0"):
            OrderSpec(0)

    def test_csd_partition(self):
        assert OrderSpec.from_order(3).csd_partition == (2, 1)
        assert OrderSpec.from_order(5).csd_partition == (2, 3)
        assert OrderSpec.from_order(7).csd_partition == (4, 3)
        assert OrderSpec.from_order(6).csd_partition == (3, 3)


class TestSymplecticMatrix:
    def test_order_five_exact(self):
        assert np.array_equal(symplectic_matrix(5), C5_EXPECTED)

    def test_order_one(self):
        assert np.array_equal(symplectic_matrix(1), np.array([[-1.0]], dtype=complex))

    def test_order_zero_raises(self):
        with pytest.raises(ValueError, match="size must be positive, got 0"):
            symplectic_matrix(0)

    def test_order_three_by_hand(self):
        # (-1)^r at column 4-r: rows (0,0,-1), (0,1,0), (-1,0,0)
        expected = np.array([[0, 0, -1], [0, 1, 0], [-1, 0, 0]], dtype=complex)
        assert np.array_equal(symplectic_matrix(3), expected)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_involution_property(self, m):
        c = symplectic_matrix(m)
        assert np.array_equal(c.imag, np.zeros((m, m)))
        square = c @ c
        if m % 2 == 1:
            assert np.array_equal(square, np.eye(m, dtype=complex))
            assert np.array_equal(c, c.T)
        else:
            assert np.array_equal(square, -np.eye(m, dtype=complex))
            assert np.array_equal(c, -c.T)


class TestEigenbasis:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_unitary_and_diagonalizing(self, n):
        spec = OrderSpec.from_order(2 * n + 1)
        basis = eigenbasis(spec)
        m = spec.m
        assert unitarity_residual(basis.V) < 1e-14
        h = block_diag(symplectic_matrix(m), -symplectic_matrix(m))
        signature = block_diag(-np.eye(m), np.eye(m))
        assert np.max(np.abs(h @ basis.V - basis.V @ signature)) < 1e-14

    @pytest.mark.parametrize("n", range(1, 21))
    def test_entry_set_and_count(self, n):
        v = eigenbasis(OrderSpec.from_order(2 * n + 1)).V
        nonzero = v[np.abs(v) > 0]
        assert np.array_equal(nonzero.imag, np.zeros(len(nonzero)))
        half = 1.0 / np.sqrt(2.0)
        for entry in nonzero.real:
            assert any(abs(entry - val) < 1e-15 for val in (half, -half, 1.0))
        # 2n columns with two entries each per half, plus two single-entry columns
        assert len(nonzero) == 8 * n + 2

    def test_block_v11_for_n_two(self):
        # first block: rows I2 / sqrt(2), middle row e3, last rows C2 / sqrt(2)
        basis = eigenbasis(OrderSpec.from_order(5))
        s = 1.0 / np.sqrt(2.0)
        c2 = np.array([[0, -1], [1, 0]], dtype=complex)
        expected = np.zeros((5, 5), dtype=complex)
        expected[:2, :2] = s * np.eye(2)
        expected[2, 2] = 1.0
        expected[3:, :2] = s * c2
        assert np.max(np.abs(basis.V[:5, :5] - expected)) < 1e-15

    def test_block_v11_for_n_three(self):
        # p > q: [minus | 0 | 0] with minus = [I3; 0; -C3] / sqrt(2); the first unit is in the bottom half
        spec = OrderSpec.from_order(7)
        assert spec.csd_partition == (4, 3)
        s = 1.0 / np.sqrt(2.0)
        minus_c3 = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
        expected = np.zeros((7, 7), dtype=complex)
        expected[:3, :3] = s * np.eye(3)
        expected[4:, :3] = s * minus_c3
        assert np.array_equal(eigenbasis(spec).V[:7, :7], expected)

    @pytest.mark.parametrize("m", range(3, 42, 2))
    def test_unit_columns_follow_the_partition(self, m):
        # Column n is e_{m+n} when p > q and e_n when q > p; column m+n is the other.
        spec = OrderSpec.from_order(m)
        n = spec.n
        p, q = spec.csd_partition
        first, second = (m + n, n) if p > q else (n, m + n)
        v = eigenbasis(spec).V
        eye = np.eye(2 * m)
        assert np.array_equal(v[:, n], eye[first]) and np.array_equal(v[:, m + n], eye[second])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_blocks_satisfy_eigen_equations(self, n):
        spec = OrderSpec.from_order(2 * n + 1)
        basis = eigenbasis(spec)
        m = spec.m
        h = block_diag(symplectic_matrix(m), -symplectic_matrix(m))
        minus = basis.V[:, :m]
        plus = basis.V[:, m:]
        assert np.max(np.abs(h @ minus + minus)) < 1e-14
        assert np.max(np.abs(h @ plus - plus)) < 1e-14


    @pytest.mark.parametrize("m", [*range(2, 18), 64, 65, 128, 129])
    def test_gather_tables_match_scans_of_the_whole_basis(self, m):
        # One nonzero pass over V gives the tables that scans of every entry give, in every bit.
        basis = eigenbasis(OrderSpec(m))
        exact, rows, coefficients = _scanned_tables(basis.V)
        assert np.array_equal(basis._rows, rows)
        assert _same_bits(basis._coefficients, coefficients)
        assert basis._exact is None if m >= 16 else _same_bits(basis._exact, exact)


class TestQ4Matrix:
    def test_n_two_block(self):
        # (-1)^(n+1) C2* = C2 at n=2, so the block reads [I2 0 C2; 0 sqrt2 0; I2 0 -C2]
        q4 = q4_matrix(OrderSpec.from_order(5))
        c2 = np.array([[0, -1], [1, 0]], dtype=complex)
        blk = np.zeros((5, 5), dtype=complex)
        blk[:2, :2] = np.eye(2)
        blk[:2, 3:] = c2
        blk[2, 2] = np.sqrt(2.0)
        blk[3:, :2] = np.eye(2)
        blk[3:, 3:] = -c2
        assert np.max(np.abs(q4 - block_diag(blk, blk))) < 1e-15

    def test_n_one_block(self):
        # C1 = (-1): (-1)^(n+1) C1* = -1 and (-1)^n C1* = +1 at n=1
        q4 = q4_matrix(OrderSpec.from_order(3))
        blk = np.array(
            [
                [1, 0, -1],
                [0, np.sqrt(2.0), 0],
                [1, 0, 1],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(q4 - block_diag(blk, blk))) < 1e-15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_orthogonal_norm_two(self, n):
        q4 = q4_matrix(OrderSpec.from_order(2 * n + 1))
        gram = q4 @ q4.conj().T
        assert np.max(np.abs(gram - 2.0 * np.eye(q4.shape[0]))) < 1e-14

    def test_even_order_unsupported(self):
        with pytest.raises(UnsupportedOrder):
            q4_matrix(OrderSpec.from_order(4))


class TestEvenOrderZ:
    def test_n_one_exact(self):
        # (-1)^(n+1) i C1 = i * (-1) = -i at n=1; multiply the two factors by hand
        s = 1.0 / np.sqrt(2.0)
        expected = s * np.array(
            [
                [1, -1j, 0, 0],
                [1, 1j, 0, 0],
                [0, 0, 1, -1j],
                [0, 0, 1, 1j],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(even_order_Z(1) - expected)) < 1e-15

    @pytest.mark.parametrize("n", [*range(1, 5), 32, 64, 100])
    def test_matches_displayed_factor_product(self, n):
        # Z's entries are placed, not multiplied out; they must be the product's in every bit, +0.0 zeros included.
        product = _displayed_factor_product(n)
        z = even_order_Z(n)
        assert _same_bits(z, product)
        # V's even layout takes the column blocks of Z* in the order (2, 3, 1, 4).
        assert _same_bits(eigenbasis(OrderSpec(2 * n)).V, product.conj().T[:, np.r_[n : 3 * n, :n, 3 * n : 4 * n]])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_unitary(self, n):
        assert unitarity_residual(even_order_Z(n)) < 1e-14

    def test_n_zero_raises(self):
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            even_order_Z(0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_off_diagonal_quadrants_zero(self, n):
        z = even_order_Z(n)
        half = 2 * n
        assert np.all(z[:half, half:] == 0)
        assert np.all(z[half:, :half] == 0)


class TestEvenOrderEigenbasis:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_unitary_and_diagonalizing(self, n):
        v = eigenbasis(OrderSpec.from_order(2 * n)).V
        assert unitarity_residual(v) < 1e-14
        m = 2 * n
        h = block_diag(1j * symplectic_matrix(m), -1j * symplectic_matrix(m))
        d = v.conj().T @ h @ v
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-14
        diag = np.real(np.diag(d))
        assert np.allclose(np.abs(diag), 1.0, atol=1e-14)
        # each half is a single eigenspace
        assert len(set(np.sign(diag[: 2 * n]))) == 1
        assert len(set(np.sign(diag[2 * n :]))) == 1


class TestCachedPerOrder:
    """C_m and V are built once per order and shared read-only."""

    def test_symplectic_matrix_is_read_only_and_shared(self):
        c = symplectic_matrix(5)
        assert symplectic_matrix(5) is c
        with pytest.raises(ValueError):
            c[0, 4] = 1.0
        assert np.array_equal(symplectic_matrix(5), C5_EXPECTED)

    @pytest.mark.parametrize("m", [5, 6])
    def test_eigenbasis_is_read_only_and_shared(self, m):
        spec = OrderSpec.from_order(m)
        basis = eigenbasis(spec)
        assert eigenbasis(OrderSpec.from_order(m)) is basis
        with pytest.raises(ValueError):
            basis.V[0, 0] = 0.0

    def test_one_build_per_distinct_order(self):
        orders = range(3, 10)
        pairs = [generate_random_pair(OrderSpec.from_order(m), m) for m in orders]
        eigenbasis.cache_clear()
        for _ in range(4):
            for source in pairs:
                pair = BoundaryPair.from_matrices(source.A, source.B)
                check_self_adjoint(pair)
                canonical_decompose(pair)
        info = eigenbasis.cache_info()
        assert info.misses == len(orders)
        assert info.hits == 4 * len(orders) - len(orders)
