"""Dense complex linear algebra kernel.

The SDP, relations, strategies and structure checks use its Hermitian
eigensolver, Schmidt decompositions and sign normalization.  The
eigensolver is LAPACK ``eigh`` behind an entrywise Hermiticity check, and the
Schmidt decomposition of a state is the SVD of its matrix M_ψ, so the last
digits of their results, like those of every BLAS product in ``sdp.solve``,
vary between BLAS builds and CPU kernels; the solver's values agree across
hosts within the certified gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12


class NonHermitian(ValueError):
    """Input matrix is not Hermitian within the required tolerance."""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(a, a).real))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition by LAPACK ``eigh`` of a matrix Hermitian within
    HERMITIAN_TOL entrywise, taken of its symmetrized (h+h†)/2.

    Returns eigenvalues ascending and a unitary matrix of eigenvectors
    (columns), so that h @ V == V @ diag(w).  A real symmetric input is
    decomposed in real arithmetic, so V is then real orthogonal.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"matrix must be a non-empty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise NonHermitian(f"matrix must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise NonHermitian(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {HERMITIAN_TOL:.1e})"
        )
    m = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(m if np.iscomplexobj(h) else m.real)
    return w, v


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite state, the SVD of its matrix M_ψ:
    M_ψ = Σ_i coefficients[i]·left[:,i]·right[:,i]ᵀ, that is
    ψ = Σ_i coefficients[i]·left[:,i]⊗right[:,i]."""

    coefficients: np.ndarray  # non-increasing, > cutoff
    left_basis: np.ndarray  # d_A x r, orthonormal columns
    right_basis: np.ndarray  # d_B x r, orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)


def schmidt(w, d_A: int, d_B: int, cutoff: float = 1e-9) -> SchmidtDecomposition:
    """Schmidt decomposition of w, any array of d_A·d_B entries read
    row-major as M_ψ, by one SVD, keeping coefficients strictly above cutoff.

    Singular values at or below max(cutoff, machine floor) count as exact
    zeros; the machine floor keeps numerically-zero directions out of the
    orthonormal bases.
    """
    if not 0 <= cutoff < np.inf:
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff!r}")
    m = np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("w contains non-finite entries")
    if d_A <= 0 or d_B <= 0 or m.size != d_A * d_B:
        raise DimensionMismatch(f"vector of dim {m.size} is not {d_A}x{d_B}")
    u, sv, vh = np.linalg.svd(m.reshape(d_A, d_B), full_matrices=False)
    keep = sv > max(cutoff, 1e-14 * max(1.0, frobenius(m)))
    return SchmidtDecomposition(sv[keep], u[:, keep], vh[keep].T)


def sign_normalize(h) -> np.ndarray:
    """Map a Hermitian operator to the ±1 observable sign(h), with sign(0) = +1."""
    w, v = hermitian_eig(h)
    signs = np.where(w >= 0.0, 1.0, -1.0)
    out = (v * signs) @ v.conj().T
    return (out + out.conj().T) / 2
