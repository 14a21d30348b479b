"""Relation systems certifying (near-)optimality of XOR game strategies.

A dual feasible point y with Diag(y) − G_sym ⪰ 0 factors into pairs of real
vectors (u_k, v_k).  Any strategy then satisfies the exact identity

    Σ_k ‖(u_k·A⃗ ⊗ I)|ψ⟩ − (I ⊗ v_k·B⃗)|ψ⟩‖²  =  Σ_i y_i − β(G, S),

so at a dual optimum the residual sum measures the bias deficit directly and
certifies ε-optimality.  Both closed-form relation systems for CHSH(n) are
provided alongside numerical extraction from an arbitrary dual point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import InvalidN, XorGame, chshn_pair_order, symmetrize
from .linalg import DimensionMismatch, hermitian_eig, vec_to_matrix
from .strategies import Strategy, bias

DEFAULT_CUTOFF = 1e-9


class DualInfeasible(ValueError):
    """Diag(y) − G_sym has an eigenvalue below the feasibility floor."""


@dataclass(frozen=True)
class RelationSystem:
    """Dual weights y and relation vector pairs (u_k, v_k)."""

    y: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_alice: int
    n_bob: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if y.size != self.n_alice + self.n_bob:
            raise DimensionMismatch(
                f"y has length {y.size}, expected {self.n_alice + self.n_bob}"
            )
        fixed = []
        for u, v in self.pairs:
            u = np.asarray(u, dtype=float).reshape(-1)
            v = np.asarray(v, dtype=float).reshape(-1)
            if u.size != self.n_alice or v.size != self.n_bob:
                raise DimensionMismatch(
                    f"pair has shapes ({u.size},{v.size}), "
                    f"expected ({self.n_alice},{self.n_bob})"
                )
            fixed.append((u, v))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "pairs", tuple(fixed))

    @property
    def r(self) -> int:
        return len(self.pairs)


def invariant_deviations(rel: RelationSystem, g: XorGame) -> tuple[float, float, float]:
    """Max-abs deviations of (Σ u uᵀ − Diag(y_A), Σ v vᵀ − Diag(y_B), Σ u vᵀ − G/2)."""
    n, m = rel.n_alice, rel.n_bob
    if (g.n_alice, g.n_bob) != (n, m):
        raise DimensionMismatch("relation system does not fit the game")
    uu = np.zeros((n, n))
    vv = np.zeros((m, m))
    uv = np.zeros((n, m))
    for u, v in rel.pairs:
        uu += np.outer(u, u)
        vv += np.outer(v, v)
        uv += np.outer(u, v)
    dev_uu = float(np.abs(uu - np.diag(rel.y[:n])).max())
    dev_vv = float(np.abs(vv - np.diag(rel.y[n:])).max())
    dev_uv = float(np.abs(uv - g.matrix / 2.0).max())
    return dev_uu, dev_vv, dev_uv


def extract_relations(g: XorGame, y, cutoff: float = DEFAULT_CUTOFF) -> RelationSystem:
    """Factor Diag(y) − G_sym = Σ_k w_k w_kᵀ with w_k = [u_k; −v_k].

    Eigenpairs with λ ≤ cutoff are dropped; eigenvalues in [−1e-8, 0) are
    clipped to zero, anything lower raises DualInfeasible.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff!r}")
    n, m = g.n_alice, g.n_bob
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.size != n + m:
        raise DimensionMismatch(f"y has length {yv.size}, expected {n + m}")
    slack = np.diag(yv) - symmetrize(g)
    w, vecs = hermitian_eig(slack)
    w = w.real
    if w[0] < -1e-8:
        raise DualInfeasible(f"smallest eigenvalue of Diag(y) - G_sym is {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    pairs = []
    for idx in range(w.size - 1, -1, -1):
        if w[idx] <= cutoff:
            break
        wk = vecs[:, idx].real * np.sqrt(w[idx])
        pairs.append((wk[:n], -wk[n:]))
    return RelationSystem(yv, tuple(pairs), n, m)


def chshn_dual_y(n: int) -> np.ndarray:
    """Optimal dual weights for CHSH(n): 1/(2√2 n) per question, then
    1/(2√2 n(n−1)) per ordered pair.  They sum to 1/√2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN(f"need integer n >= 2, got {n!r}")
    rt8 = 2.0 * np.sqrt(2.0)
    return np.concatenate(
        [np.full(n, 1.0 / (rt8 * n)), np.full(n * (n - 1), 1.0 / (rt8 * n * (n - 1)))]
    )


def _pair_scale(n: int) -> float:
    return 1.0 / np.sqrt(2.0 * np.sqrt(2.0) * n * (n - 1))


def chshn_relations_form1(n: int) -> RelationSystem:
    """Closed-form CHSH(n) relations: one question vs. a Bell-type combination
    of the two answer columns for that unordered pair."""
    y = chshn_dual_y(n)
    c = _pair_scale(n)
    h = c / np.sqrt(2.0)
    order = chshn_pair_order(n)
    u, v = np.zeros((len(order), n)), np.zeros((len(order), len(order)))
    for t, (a, b) in enumerate(order):
        u[t, a - 1] = c
        v[t, t] = h if a < b else -h
        v[t, t ^ 1] = h
    return RelationSystem(y, tuple(zip(u, v)), n, len(order))


def chshn_relations_form2(n: int) -> RelationSystem:
    """Closed-form CHSH(n) relations: a ± combination of two questions vs. the
    single answer column for that ordered pair."""
    y = chshn_dual_y(n)
    c = _pair_scale(n)
    h = c / np.sqrt(2.0)
    order = chshn_pair_order(n)
    u, v = np.zeros((len(order), n)), np.zeros((len(order), len(order)))
    for t, (a, b) in enumerate(order):
        u[t, a - 1] = h if a < b else -h
        u[t, b - 1] = h
        v[t, t] = c
    return RelationSystem(y, tuple(zip(u, v)), n, len(order))


def residual(s: Strategy, rel: RelationSystem) -> float:
    """Σ_k ‖(u_k·A⃗ ⊗ I)|ψ⟩ − (I ⊗ v_k·B⃗)|ψ⟩‖²."""
    if len(s.alice) != rel.n_alice or len(s.bob) != rel.n_bob:
        raise DimensionMismatch(
            f"strategy has {len(s.alice)}x{len(s.bob)} observables, "
            f"relations want {rel.n_alice}x{rel.n_bob}"
        )
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    u = np.array([uk for uk, _ in rel.pairs]).reshape(rel.r, rel.n_alice)
    v = np.array([vk for _, vk in rel.pairs]).reshape(rel.r, rel.n_bob)
    # (u_k·A⃗ ⊗ I)|ψ⟩ = Σ_s u_ks·A_s M_ψ and (I ⊗ v_k·B⃗)|ψ⟩ = Σ_t v_kt·M_ψ B_tᵀ:
    # one product per observable, then one per side over the pairs
    am = np.stack([o.matrix for o in s.alice]) @ mpsi
    mb = mpsi @ np.stack([o.matrix for o in s.bob]).transpose(0, 2, 1)
    diff = u @ am.reshape(rel.n_alice, -1) - v @ mb.reshape(rel.n_bob, -1)
    return float(np.vdot(diff, diff).real)


def check_identity(
    g: XorGame, s: Strategy, rel: RelationSystem
) -> tuple[float, float, bool]:
    """Residual sum vs. Σy − bias; they agree for every valid strategy."""
    lhs = residual(s, rel)
    ysum = float(rel.y.sum())
    rhs = ysum - bias(g, s)
    ok = abs(lhs - rhs) <= 1e-7 * max(1.0, ysum)
    return lhs, rhs, ok


def certify_epsilon(g: XorGame, s: Strategy, rel: RelationSystem, beta: float) -> float:
    """ε such that the strategy is exactly ε-optimal: residual / β."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return residual(s, rel) / beta
