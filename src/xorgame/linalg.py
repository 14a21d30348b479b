"""Dense complex linear algebra kernel.

The SDP, relations, strategies and structure checks use its Hermitian
eigensolver, Schmidt decompositions and sign normalization; strategies keep
their state as its matrix, so only `schmidt` reads a state through the
vector/matrix bijection.  The eigensolver is LAPACK ``eigh`` behind an
entrywise Hermiticity check, so the last digits of its results, like those
of every BLAS product in ``sdp.solve``, vary between BLAS builds and CPU
kernels; the solver's values agree across hosts within the certified gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12


class NonHermitian(ValueError):
    """Input matrix is not Hermitian within the required tolerance."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


def _as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"{name} must be a non-empty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_complex_vector(w, name: str = "vector") -> np.ndarray:
    v = np.asarray(w, dtype=complex).reshape(-1)
    if v.size == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(a, a).real))


def require_hermitian(h, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity entrywise and return the symmetrized (h+h†)/2."""
    m = _as_complex_matrix(h, name)
    if m.shape[0] != m.shape[1]:
        raise NonHermitian(f"{name} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > tol:
        raise NonHermitian(f"{name} deviates from Hermitian by {dev:.3e} (tolerance {tol:.1e})")
    return (m + m.conj().T) / 2


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix Hermitian within HERMITIAN_TOL
    (require_hermitian) by LAPACK ``eigh``.

    Returns eigenvalues ascending and a unitary matrix of eigenvectors
    (columns), so that h @ V == V @ diag(w).  A real symmetric input is
    decomposed in real arithmetic, so V is then real orthogonal.
    """
    m = require_hermitian(h)
    if not np.iscomplexobj(h):
        m = m.real
    w, v = np.linalg.eigh(m)
    return w, v


def vec_to_matrix(w, d_A: int, d_B: int) -> np.ndarray:
    """Reshape a bipartite vector Σ w_ij |i⟩⊗|j⟩ into the matrix Σ w_ij |i⟩⟨j|."""
    v = _as_complex_vector(w, "w")
    if d_A <= 0 or d_B <= 0 or v.size != d_A * d_B:
        raise DimensionMismatch(f"vector of dim {v.size} is not {d_A}x{d_B}")
    return v.reshape(d_A, d_B)


def matrix_to_vec(m) -> np.ndarray:
    """Inverse of vec_to_matrix (row-major flattening)."""
    return _as_complex_matrix(m, "m").reshape(-1)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite vector: w = Σ_i coefficients[i]·left[:,i]⊗right[:,i]."""

    coefficients: np.ndarray  # non-increasing, > cutoff
    left_basis: np.ndarray  # d_A x r, orthonormal columns
    right_basis: np.ndarray  # d_B x r, orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)


def schmidt(w, d_A: int, d_B: int, cutoff: float = 1e-9) -> SchmidtDecomposition:
    """Schmidt decomposition, keeping coefficients strictly above cutoff.

    Singular values at or below max(cutoff, machine floor) count as exact
    zeros; the machine floor keeps numerically-zero directions out of the
    orthonormal bases.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    m = vec_to_matrix(w, d_A, d_B)
    scale = frobenius(m)
    dil = np.zeros((d_A + d_B, d_A + d_B), dtype=complex)
    dil[:d_A, d_A:] = m
    dil[d_A:, :d_A] = m.conj().T
    vals, vecs = hermitian_eig(dil)
    floor = max(cutoff, 1e-14 * max(1.0, scale))
    keep = np.nonzero(vals > floor)[0][::-1]  # descending singular values
    coeffs = vals[keep]
    left = np.sqrt(2.0) * vecs[:d_A, keep]
    right = np.conj(np.sqrt(2.0) * vecs[d_A:, keep])
    return SchmidtDecomposition(coeffs, left, right)


def sign_normalize(h) -> np.ndarray:
    """Map a Hermitian operator to the ±1 observable sign(h), with sign(0) = +1."""
    w, v = hermitian_eig(h)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    out = (v * signs) @ v.conj().T
    return (out + out.conj().T) / 2
