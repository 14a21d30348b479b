"""Semidefinite solver for the XOR-game bias program.

Primal:  sup  G_sym·Z   over Z ⪰ 0 with unit diagonal.
Dual:    inf  Σ y_i     over S = Diag(y) − G_sym ⪰ 0.

The implementation is the primal–dual interior-point method of Helmberg,
Rendl, Vanderbei and Wolkowicz (SIAM J. Optim. 6, 1996), written for exactly
this unit-diagonal program, in real arithmetic.  Each iteration solves one
n×n system (S⁻¹∘X)·dy = µ·diag(S⁻¹) − 1 for the dual step, recovers the
primal step from it, and takes separate primal and dual step lengths that a
Cholesky test keeps inside the positive definite cone.  Convergence is
declared on the actually exported duality gap, never on µ alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .games import XorGame, symmetrize
from .linalg import DimensionMismatch, hermitian_eig

DEFAULT_TOL = 1e-8
MAX_ITERATIONS = 500
BOUNDARY_FRACTION = 0.98
BACKTRACK_FACTOR = 0.8
BACKTRACK_STEPS = 60
# centering parameter: µ = σ·⟨X, S⟩/n, smaller after near-full steps
SIGMA_SLOW = 0.3
SIGMA_FAST = 0.05
SYMMETRY_TOL = 1e-12


class NonSymmetric(ValueError):
    """Objective matrix must be symmetric."""


class MaxIterations(RuntimeError):
    """No convergence (iteration cap, collapsed step or singular Newton
    system); carries the best iterate, flagged non-converged, and says why
    in its message."""

    def __init__(self, solution: "SdpSolution", diagnosis: str = ""):
        super().__init__(
            f"no convergence within {solution.iterations} iterations "
            f"(best gap {solution.gap:.3e}){diagnosis}"
        )
        self.solution = solution


@dataclass(frozen=True)
class SdpSolution:
    primal_value: float
    dual_value: float
    gap: float
    y: np.ndarray
    z: np.ndarray
    iterations: int
    converged: bool = True


def _check_symmetric(g_sym) -> np.ndarray:
    g = np.asarray(g_sym, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise NonSymmetric(f"objective must be square, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("objective contains non-finite entries")
    dev = np.abs(g - g.T).max()
    if dev > SYMMETRY_TOL:
        raise NonSymmetric(f"objective deviates from symmetry by {dev:.3e}")
    return (g + g.T) / 2


def _step_length(m: np.ndarray, dm: np.ndarray) -> float:
    """BOUNDARY_FRACTION times the first of 1, BACKTRACK_FACTOR, ... at which a
    Cholesky factorization shows m + α·dm positive definite; 0 for a
    non-finite direction (Cholesky passes NaN) or when all BACKTRACK_STEPS
    tries fail."""
    if not np.all(np.isfinite(dm)):
        return 0.0
    alpha = 1.0
    for _ in range(BACKTRACK_STEPS):
        try:
            np.linalg.cholesky(m + alpha * dm)
        except np.linalg.LinAlgError:
            alpha *= BACKTRACK_FACTOR
        else:
            return BOUNDARY_FRACTION * alpha
    return 0.0


def _export(g: np.ndarray, y: np.ndarray, x: np.ndarray, iterations: int) -> SdpSolution:
    scale = 1.0 / np.sqrt(np.diag(x))
    z = x * np.outer(scale, scale)
    z = (z + z.T) / 2
    primal = float((g * z).sum())
    dual = float(y.sum())
    return SdpSolution(primal, dual, dual - primal, y.copy(), z, iterations)


def solve(g_sym, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve both programs to duality gap <= tol·min(1, ‖G_sym‖_∞).

    ‖G_sym‖_∞ is the largest row ℓ1 norm: the gap promise is absolute for
    objectives of unit size or larger and relative for smaller ones.  Raises
    MaxIterations (carrying the best iterate) if the 500-step cap is hit, a
    step collapses or the Newton system is singular.
    """
    if not (0.0 < tol <= 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol!r}")
    g = _check_symmetric(g_sym)
    n = g.shape[0]
    row_l1 = np.abs(g).sum(axis=1)
    norm = float(row_l1.max())
    if norm == 0.0:
        return SdpSolution(0.0, 0.0, 0.0, np.zeros(n), np.eye(n), 0)
    target = tol * min(1.0, norm)
    # X = I and a strictly diagonally dominant S are interior points
    x = np.eye(n)
    y = row_l1 + norm
    s = np.diag(y) - g
    mu = SIGMA_SLOW * float(np.trace(s)) / n
    alpha_p = alpha_d = 0.0
    best = None
    iterations = 0
    while True:
        sol = _export(g, y, x, iterations)
        if sol.gap <= target:
            return sol
        if best is None or sol.gap < best.gap:
            best = sol
        if iterations >= MAX_ITERATIONS:
            reason = "iteration cap reached"
            break
        # Newton step for X·S = µI with diag(X + dX) = 1 and dS = Diag(dy);
        # S⁻¹ is symmetrized, as its rounding asymmetry stalls late iterations
        try:
            s_inv = np.linalg.inv(s)
            s_inv = (s_inv + s_inv.T) / 2
            dy = np.linalg.solve(x * s_inv, mu * np.diag(s_inv) - 1.0)
        except np.linalg.LinAlgError:
            reason = "Newton system singular"
            break
        m = (x * dy) @ s_inv
        dx = mu * s_inv - x - (m + m.T) / 2
        alpha_p = _step_length(x, dx)
        alpha_d = _step_length(s, np.diag(dy))
        if alpha_p == 0.0 or alpha_d == 0.0:
            reason = "step collapsed"
            break
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = np.diag(y) - g
        iterations += 1
        sigma = SIGMA_FAST if alpha_p + alpha_d >= 1.8 else SIGMA_SLOW
        mu = sigma * float((x * s).sum()) / n
    raise MaxIterations(
        replace(best, iterations=iterations, converged=False),
        f": {reason}; last step lengths primal {alpha_p:.3g}, dual {alpha_d:.3g}; mu {mu:.3e}",
    )


def quantum_bias(g: XorGame, tol: float = DEFAULT_TOL) -> float:
    """Quantum success bias of a game: the shared optimum of both programs."""
    return solve(symmetrize(g), tol).primal_value


def verify_dual_feasible(y, g_sym) -> tuple[bool, float]:
    """Check Diag(y) ⪰ g_sym; returns (feasible, smallest eigenvalue of the slack)."""
    g = _check_symmetric(g_sym)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.size != g.shape[0]:
        raise DimensionMismatch(f"y has length {yv.size}, objective is {g.shape[0]}x{g.shape[0]}")
    min_eig = float(hermitian_eig(np.diag(yv) - g)[0][0])
    return min_eig >= -1e-9, min_eig
