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
    schmidt,
    sign_normalize,
)
from xorgame.strategies import canonical_chshn

from conftest import random_hermitian
from oracles import dilation_schmidt


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
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_accepts_transposed_view(self):
        # non-contiguous inputs (e.g. .T views) must be handled
        base = _rand_h(11, 5)
        w1, _ = hermitian_eig(base.T)
        w2, _ = hermitian_eig(np.ascontiguousarray(base.T))
        assert np.allclose(w1, w2, atol=1e-14)


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

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            schmidt(np.ones(5), 2, 2)

    @pytest.mark.parametrize("cutoff", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_cutoff(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite and >= 0"):
            schmidt(np.eye(2).reshape(-1) / np.sqrt(2), 2, 2, cutoff=cutoff)

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError, match="w contains non-finite entries"):
            schmidt(np.array([np.nan, 0.0, 0.0, 1.0]), 2, 2)

    def test_vector_and_matrix_give_the_same_decomposition(self):
        # w is read row-major: the vector and its d_A x d_B matrix are one state
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        m /= np.linalg.norm(m)
        a, b = schmidt(m.reshape(-1), 3, 5), schmidt(m, 3, 5)
        for x, y in zip(
            (a.coefficients, a.left_basis, a.right_basis),
            (b.coefficients, b.left_basis, b.right_basis),
        ):
            assert np.array_equal(x, y)
        assert np.abs((a.left_basis * a.coefficients) @ a.right_basis.T - m).max() < 1e-14


def _assert_matches_dilation(psi, da, db):
    got, want = schmidt(psi, da, db), dilation_schmidt(psi, da, db)
    assert got.rank == want.rank
    assert np.abs(got.coefficients - want.coefficients).max(initial=0.0) <= 1e-12
    for x, y in ((got.left_basis, want.left_basis), (got.right_basis, want.right_basis)):
        assert np.abs(x @ x.conj().T - y @ y.conj().T).max() <= 1e-10


class TestSchmidtMatchesDilation:
    """The SVD against the eigenpairs of the Hermitian dilation: the same
    coefficients and the same support projectors LLᴴ and RRᴴ."""

    @given(
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=120, deadline=None)
    def test_random_states_of_every_rank(self, da, db, rank, seed):
        # rank min(d_A, d_B) is full rank, anything less is rank-deficient
        rank = min(rank, da, db)
        rng = np.random.default_rng(seed)
        a = np.linalg.qr(rng.standard_normal((da, rank)) + 1j * rng.standard_normal((da, rank)))[0]
        b = np.linalg.qr(rng.standard_normal((db, rank)) + 1j * rng.standard_normal((db, rank)))[0]
        c = rng.uniform(0.1, 1.0, rank)
        m = (a * c) @ b.T
        _assert_matches_dilation((m / np.linalg.norm(m)).reshape(-1), da, db)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("extra_a,extra_b", [(0, 0), (1, 0), (0, 3), (4, 2)])
    def test_junk_embedded_canonical_states(self, n, extra_a, extra_b):
        # the state embed_with_junk gives: M_ψ zero-padded into the junk sectors
        psi = np.pad(canonical_chshn(n).state, ((0, extra_a), (0, extra_b)))
        _assert_matches_dilation(psi, *psi.shape)


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
