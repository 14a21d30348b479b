import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorgame.linalg import (
    DimensionMismatch,
    NonHermitian,
    SchmidtDecomposition,
    frobenius,
    hermitian_eig,
    matrix_to_vec,
    require_hermitian,
    schmidt,
    sign_normalize,
    vec_to_matrix,
)

from conftest import random_hermitian


def _rand_h(seed, d):
    return random_hermitian(np.random.default_rng(seed), d)


class TestHermitianEig:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_reconstruction_and_orthonormality(self, d):
        h = _rand_h(d, d)
        w, v = hermitian_eig(h)
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-12 * max(1, frobenius(h))
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12

    def test_eigenvalues_ascending_and_real(self):
        h = _rand_h(7, 9)
        w, _ = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert np.abs(np.imag(w)).max() == 0.0

    def test_matches_known_spectrum(self):
        h = np.diag([3.0, -1.0, 2.0]).astype(complex)
        w, _ = hermitian_eig(h)
        assert np.allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_degenerate_spectrum(self):
        # projector with a 3-fold eigenvalue must still give orthonormal vectors
        v = np.linalg.qr(_rand_h(3, 4) + 1j * _rand_h(4, 4))[0]
        h = (v * [1.0, 1.0, 1.0, -2.0]) @ v.conj().T
        h = (h + h.conj().T) / 2
        w, u = hermitian_eig(h)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        assert np.allclose(np.sort(w), [-2.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_real_input_gives_real_orthogonal_vectors(self):
        # real symmetric input is decomposed in real arithmetic: no phases to drop
        a = np.random.default_rng(3).standard_normal((6, 6))
        h = (a + a.T) / 2
        w, v = hermitian_eig(h)
        assert not np.iscomplexobj(v)
        assert np.abs(v.T @ v - np.eye(6)).max() < 1e-12
        assert np.abs((v * w) @ v.T - h).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-12)

    def test_accepts_transposed_view(self):
        # non-contiguous inputs (e.g. .T views) must be handled
        base = _rand_h(11, 5)
        w1, _ = hermitian_eig(base.T)
        w2, _ = hermitian_eig(np.ascontiguousarray(base.T))
        assert np.allclose(w1, w2, atol=1e-14)


class TestVecBijection:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        assert np.array_equal(vec_to_matrix(matrix_to_vec(m), r, c), m)

    def test_row_major_order(self):
        m = np.array([[1, 2, 3], [4, 5, 6]], dtype=complex)
        assert np.array_equal(matrix_to_vec(m), np.arange(1, 7, dtype=complex))

    def test_operator_action_via_matrix_product(self):
        # (M ⊗ I)vec(X) = vec(MX) and (I ⊗ N)vec(X) = vec(X Nᵀ)
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        n = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        vec = matrix_to_vec(x)
        assert np.allclose(np.kron(m, np.eye(4)) @ vec, matrix_to_vec(m @ x), atol=1e-13)
        assert np.allclose(np.kron(np.eye(3), n) @ vec, matrix_to_vec(x @ n.T), atol=1e-13)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec_to_matrix(np.ones(5), 2, 2)


class TestSchmidt:
    def test_product_state_rank_one(self):
        a = np.array([1.0, 2.0]) / np.sqrt(5)
        b = np.array([0.0, 1.0, 1.0j]) / np.sqrt(2)
        dec = schmidt(np.kron(a, b), 2, 3)
        assert dec.rank == 1
        assert abs(dec.coefficients[0] - 1.0) < 1e-12

    def test_maximally_entangled_coefficients(self):
        psi = np.eye(4, dtype=complex).reshape(-1) / 2.0
        dec = schmidt(psi, 4, 4)
        assert dec.rank == 4
        assert np.allclose(dec.coefficients, 0.5, atol=1e-12)

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, da, db, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
        psi /= np.linalg.norm(psi)
        dec = schmidt(psi, da, db)
        rebuilt = sum(
            dec.coefficients[k] * np.kron(dec.left_basis[:, k], dec.right_basis[:, k])
            for k in range(dec.rank)
        )
        assert np.abs(rebuilt - psi).max() < 1e-10
        # bases are orthonormal
        assert np.abs(dec.left_basis.conj().T @ dec.left_basis - np.eye(dec.rank)).max() < 1e-10
        assert np.abs(dec.right_basis.conj().T @ dec.right_basis - np.eye(dec.rank)).max() < 1e-10

    def test_coefficients_descending_nonnegative(self):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        dec = schmidt(psi, 3, 4)
        assert np.all(dec.coefficients > 0)
        assert np.all(np.diff(dec.coefficients) <= 0)

    def test_cutoff_drops_small_terms(self):
        a = np.kron([1.0, 0.0], [1.0, 0.0])
        b = np.kron([0.0, 1.0], [0.0, 1.0])
        psi = a + 1e-6 * b
        psi = psi / np.linalg.norm(psi)
        assert schmidt(psi, 2, 2, cutoff=1e-3).rank == 1
        assert schmidt(psi, 2, 2, cutoff=1e-9).rank == 2


class TestSignNormalize:
    def test_spectrum_becomes_signs(self):
        h = np.diag([2.0, -3.0, 0.0]).astype(complex)
        out = sign_normalize(h)
        assert np.allclose(out, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_rotated_sum_of_involutions(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        out = sign_normalize(sx + sz)
        assert np.abs(out - (sx + sz) / np.sqrt(2)).max() < 1e-14

    def test_result_is_involution(self, rng):
        h = random_hermitian(rng, 6)
        out = sign_normalize(h)
        assert np.abs(out @ out - np.eye(6)).max() < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-13


class TestKronFrobenius:
    def test_frobenius_multiplicative_under_kron(self, rng):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        assert abs(frobenius(np.kron(a, b)) - frobenius(a) * frobenius(b)) < 1e-12

    def test_kron_matches_block_layout(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.eye(2, dtype=complex)
        top = np.hstack([b, 2 * b])
        bottom = np.hstack([3 * b, 4 * b])
        assert np.array_equal(np.kron(a, b), np.vstack([top, bottom]))
