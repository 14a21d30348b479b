"""Relation systems certifying (near-)optimality of XOR game strategies.

A dual feasible point y with Diag(y) − G_sym ⪰ 0 factors into pairs of real
vectors (u_k, v_k).  Any strategy then satisfies the exact identity

    Σ_k ‖(u_k·A⃗ ⊗ I)|ψ⟩ − (I ⊗ v_k·B⃗)|ψ⟩‖²  =  Σ_i y_i − β(G, S),

so at a dual optimum the residual sum measures the bias deficit directly and
certifies ε-optimality.  A relation system is (y, U, V): U has the rows u_k
and V the rows v_k, so Diag(y) − G_sym = WᵀW with W = [U, −V], and every
consumer works on the two matrices.  Both closed-form relation systems for
CHSH(n) are provided alongside numerical extraction from an arbitrary dual
point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import XorGame, _per_n, chshn_matrix, chshn_pair_order, require_chshn_n, symmetrize
from .linalg import DimensionMismatch, hermitian_eig
from .strategies import Strategy, bias, require_counts, require_game_shape

DEFAULT_CUTOFF = 1e-9


class DualInfeasible(ValueError):
    """Diag(y) − G_sym has an eigenvalue below the feasibility floor."""


@dataclass(frozen=True)
class RelationSystem:
    """Dual weights y and the relation matrices u (r × n_alice, rows u_k)
    and v (r × n_bob, rows v_k), finite and stored as read-only copies."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float).reshape(-1)
        u = np.array(self.u, dtype=float, order="C")
        v = np.array(self.v, dtype=float, order="C")
        if u.ndim != 2 or v.ndim != 2 or len(u) != len(v) or y.size != u.shape[1] + v.shape[1]:
            raise DimensionMismatch(
                f"y, u, v have shapes {y.shape}, {u.shape}, {v.shape}; "
                "expected (n_alice + n_bob,), (r, n_alice), (r, n_bob)"
            )
        for name, arr in (("y", y), ("u", u), ("v", v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"relation {name} contains non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_alice(self) -> int:
        return self.u.shape[1]

    @property
    def n_bob(self) -> int:
        return self.v.shape[1]

    @property
    def r(self) -> int:
        return len(self.u)


def invariant_deviations(rel: RelationSystem, g: XorGame) -> tuple[float, float, float]:
    """Max-abs deviations of (UᵀU − Diag(y_A), VᵀV − Diag(y_B), UᵀV − G/2)."""
    n = rel.n_alice
    if (g.n_alice, g.n_bob) != (n, rel.n_bob):
        raise DimensionMismatch("relation system does not fit the game")
    dev_uu = float(np.abs(rel.u.T @ rel.u - np.diag(rel.y[:n])).max())
    dev_vv = float(np.abs(rel.v.T @ rel.v - np.diag(rel.y[n:])).max())
    dev_uv = float(np.abs(rel.u.T @ rel.v - g.matrix / 2.0).max())
    return dev_uu, dev_vv, dev_uv


def extract_relations(g: XorGame, y, cutoff: float = DEFAULT_CUTOFF) -> RelationSystem:
    """Factor Diag(y) − G_sym = Σ_k w_k w_kᵀ with w_k = [u_k; −v_k].

    Row k of W = [U, −V] is √λ_k times the k-th eigenvector, the eigenvalues
    λ_k > cutoff in descending order; eigenvalues in [−1e-8, 0) count as
    zero, anything lower raises DualInfeasible.
    """
    if not 0 <= cutoff < np.inf:
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff!r}")
    n, m = g.n_alice, g.n_bob
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.size != n + m:
        raise DimensionMismatch(f"y has length {yv.size}, expected {n + m}")
    slack = np.diag(yv) - symmetrize(g)
    w, vecs = hermitian_eig(slack)
    w = w.real
    if w[0] < -1e-8:
        raise DualInfeasible(f"smallest eigenvalue of Diag(y) - G_sym is {w[0]:.3e}")
    # eigh sorts ascending, so the eigenvalues above the cutoff are a suffix
    top = slice(-1, -1 - int(np.count_nonzero(w > cutoff)), -1)
    rows = vecs[:, top].real.T * np.sqrt(w[top])[:, None]
    return RelationSystem(yv, rows[:, :n], -rows[:, n:])


def chshn_dual_y(n: int) -> np.ndarray:
    """Optimal dual weights for CHSH(n): 1/(2√2 n) per question, then
    1/(2√2 n(n−1)) per ordered pair.  They sum to 1/√2."""
    require_chshn_n(n)
    rt8 = 2.0 * np.sqrt(2.0)
    return np.concatenate(
        [np.full(n, 1.0 / (rt8 * n)), np.full(n * (n - 1), 1.0 / (rt8 * n * (n - 1)))]
    )


def _pair_scale(n: int) -> float:
    return 1.0 / np.sqrt(2.0 * np.sqrt(2.0) * n * (n - 1))


@_per_n
def chshn_relations_form1(n: int) -> RelationSystem:
    """Closed-form CHSH(n) relations: one question vs. a Bell-type combination
    of the two answer columns for that unordered pair; shared per n (_per_n)."""
    y = chshn_dual_y(n)
    c = _pair_scale(n)
    h = c / np.sqrt(2.0)
    order = chshn_pair_order(n)
    u, v = np.zeros((len(order), n)), np.zeros((len(order), len(order)))
    for t, (a, b) in enumerate(order):
        u[t, a - 1] = c
        v[t, t] = h if a < b else -h
        v[t, t ^ 1] = h
    return RelationSystem(y, u, v)


@_per_n
def chshn_relations_form2(n: int) -> RelationSystem:
    """Closed-form CHSH(n) relations: a ± combination of two questions vs. the
    single answer column for that ordered pair; shared per n (_per_n).  Row
    t of U is c/√2 times the signs of game column t, the matched sign at its
    first question and + at its second; V = c·I."""
    y = chshn_dual_y(n)
    c = _pair_scale(n)
    u = (c / np.sqrt(2.0)) * np.sign(chshn_matrix(n)).T
    return RelationSystem(y, u, c * np.eye(len(u)))


def residual(s: Strategy, rel: RelationSystem) -> float:
    """Σ_k ‖(u_k·A⃗ ⊗ I)|ψ⟩ − (I ⊗ v_k·B⃗)|ψ⟩‖²."""
    require_counts(s, rel.n_alice, rel.n_bob, "relation system")
    # (u_k·A⃗ ⊗ I)|ψ⟩ = Σ_s u_ks·A_s M_ψ and (I ⊗ v_k·B⃗)|ψ⟩ = Σ_t v_kt·M_ψ B_tᵀ:
    # one product per observable, then one per side over the pairs
    am = s.alice @ s.state
    mb = s.state @ s.bob.transpose(0, 2, 1)
    diff = rel.u @ am.reshape(rel.n_alice, -1) - rel.v @ mb.reshape(rel.n_bob, -1)
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
    """ε such that the strategy is exactly ε-optimal for g: residual / β;
    DimensionMismatch unless s fits g (require_game_shape)."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return residual(require_game_shape(g, s), rel) / beta
