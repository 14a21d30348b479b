"""Quantum strategies for XOR games.

A strategy is a list of ±1 observables per player plus a shared bipartite
state.  This module evaluates biases, builds the anticommuting observable
family and the canonical CHSH(n) strategies, converts feasible correlation
matrices into strategies, runs Monte-Carlo referees, and manufactures
embedded/perturbed variants used by the verification machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import InvalidN, XorGame, chshn_pair_order
from .linalg import (
    DimensionMismatch,
    frobenius,
    hermitian_eig,
    matrix_to_vec,
    require_hermitian,
    vec_to_matrix,
)

OBSERVABLE_HERMITIAN_TOL = 1e-10
OBSERVABLE_SQUARE_TOL = 1e-9
STATE_NORM_TOL = 1e-10

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class NonRealBias(ValueError):
    """Bias evaluated to a number with a non-negligible imaginary part."""


class NotPsd(ValueError):
    """Correlation matrix is not positive semidefinite."""


class BadDiagonal(ValueError):
    """Correlation matrix diagonal deviates from 1."""


class InvalidK(ValueError):
    """Anticommuting family needs k >= 1."""


@dataclass(frozen=True)
class Observable:
    """A ±1 observable: Hermitian and squaring to the identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix, OBSERVABLE_HERMITIAN_TOL, "observable")
        dev = np.abs(m @ m - np.eye(m.shape[0])).max()
        if dev > OBSERVABLE_SQUARE_TOL:
            raise ValueError(f"observable squared deviates from identity by {dev:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Strategy:
    """Observables for both players and a shared state on C^d_A ⊗ C^d_B."""

    d_A: int
    d_B: int
    alice: tuple[Observable, ...]
    bob: tuple[Observable, ...]
    state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))
        psi = np.asarray(self.state, dtype=complex).reshape(-1)
        if psi.size != self.d_A * self.d_B:
            raise DimensionMismatch(
                f"state has dim {psi.size}, expected {self.d_A}*{self.d_B}"
            )
        for name, obs, d in (("alice", self.alice, self.d_A), ("bob", self.bob, self.d_B)):
            for o in obs:
                if o.dim != d:
                    raise DimensionMismatch(f"{name} observable is {o.dim}-dim, expected {d}")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1")
        object.__setattr__(self, "state", psi)


def maximally_entangled(d: int) -> np.ndarray:
    """(1/√d) Σ_i |i⟩⊗|i⟩."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def require_game_shape(g: XorGame, s: Strategy) -> Strategy:
    """s itself if it has one observable per question of g;
    DimensionMismatch otherwise."""
    if len(s.alice) != g.n_alice or len(s.bob) != g.n_bob:
        raise DimensionMismatch(
            f"strategy has {len(s.alice)}x{len(s.bob)} observables, "
            f"game wants {g.n_alice}x{g.n_bob}"
        )
    return s


def _correlations(alice: np.ndarray, bob: np.ndarray, m: np.ndarray) -> np.ndarray:
    """⟨ψ|A_s⊗B_t|ψ⟩ for the (n, d_A, d_A) and (k, d_B, d_B) observable
    stacks and M_ψ, as an n × k complex matrix."""
    # ⟨ψ|A_s⊗B_t|ψ⟩ = tr(M†A_sM·B_tᵀ) = Σ_bb' (M†A_sM)_bb' (B_t)_bb'
    left = m.conj().T @ (alice @ m)
    return left.reshape(len(alice), -1) @ bob.reshape(len(bob), -1).T


def bias(g: XorGame, s: Strategy) -> float:
    """Success bias Σ_st G_st ⟨ψ| A_s ⊗ B_t |ψ⟩."""
    require_game_shape(g, s)
    m = vec_to_matrix(s.state, s.d_A, s.d_B)
    alice = np.stack([o.matrix for o in s.alice])
    bob = np.stack([o.matrix for o in s.bob])
    total = (g.matrix * _correlations(alice, bob, m)).sum()
    if abs(total.imag) > 1e-8:
        raise NonRealBias(f"bias has imaginary part {total.imag:.3e}")
    return float(total.real)


def sigma_observables(k: int) -> list[Observable]:
    """2k+1 pairwise anticommuting ±1 observables on C^(2^k).

    Index i = 2m-1 places σ_x at slot m after m-1 σ_y factors, i = 2m places
    σ_z there, and i = 2k+1 is σ_y on every slot.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidK(f"need integer k >= 1, got {k!r}")
    out = []
    for i in range(1, 2 * k + 2):
        if i == 2 * k + 1:
            factors = [_SIGMA_Y] * k
        else:
            m = (i + 1) // 2
            factors = [_SIGMA_Y] * (m - 1)
            factors.append(_SIGMA_X if i % 2 == 1 else _SIGMA_Z)
            factors.extend([np.eye(2, dtype=complex)] * (k - m))
        acc = factors[0]
        for f in factors[1:]:
            acc = np.kron(acc, f)
        out.append(Observable(acc))
    return out


def _matched_combinations(mats) -> np.ndarray:
    """The matched answers (±A_a + A_b)/√2 of chshn_pair_order to Alice's n
    matrices, stacked in column order."""
    combs = [mats[a - 1] + mats[b - 1] if a < b else mats[b - 1] - mats[a - 1]
             for a, b in chshn_pair_order(len(mats))]
    return np.stack(combs) / np.sqrt(2)


def _canonical_alice(n: int) -> list[np.ndarray]:
    """Alice's n pairwise anticommuting matrices of canonical_chshn(n) on
    C^(2^⌈n/2⌉), as plain arrays taken from the σ family."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN(f"need integer n >= 2, got {n!r}")
    k = n // 2
    fam = sigma_observables(max(k, 1))
    if n % 2 == 0:
        return [fam[i].matrix for i in range(2 * k)]
    eye2 = np.eye(2, dtype=complex)
    alice_mats = [np.kron(eye2, fam[i].matrix) for i in range(2 * k)]
    alice_mats.append(np.kron(_SIGMA_Z, fam[2 * k].matrix))
    return alice_mats


def canonical_chshn(n: int) -> Strategy:
    """The canonical optimal CHSH(n) strategy on C^(2^⌈n/2⌉) ⊗ C^(2^⌈n/2⌉).

    Alice's observables anticommute pairwise; Bob answers each ordered pair
    with the transpose of its matched answer (±A_a + A_b)/√2 (see
    chshn_pair_order); the state is maximally entangled.
    """
    alice_mats = _canonical_alice(n)
    d = alice_mats[0].shape[0]
    bob_mats = _matched_combinations(alice_mats).transpose(0, 2, 1)
    return Strategy(
        d,
        d,
        tuple(Observable(m) for m in alice_mats),
        tuple(Observable(m) for m in bob_mats),
        maximally_entangled(d),
    )


def tsirelson_strategy(z, n: int, m: int) -> Strategy:
    """Realize a feasible correlation matrix as a quantum strategy.

    Gram vectors x_i of z (rows of V·√Λ, eigenvalues clipped at 1e-10 and the
    vectors renormalized) are contracted against the anticommuting family:
    A_i = x_i·σ⃗ and B_j = (x_{n+j}·σ⃗)ᵀ on a maximally entangled state, so
    that ⟨ψ|A_i⊗B_j|ψ⟩ = x_i·x_{n+j} = z[i, n+j].
    """
    zm = np.asarray(z, dtype=float)
    big = n + m
    if zm.shape != (big, big):
        raise DimensionMismatch(f"z has shape {zm.shape}, expected {(big, big)}")
    w, v = hermitian_eig((zm + zm.T) / 2)
    if w[0] < -1e-9:
        raise NotPsd(f"smallest eigenvalue of z is {w[0]:.3e}")
    diag_dev = np.abs(np.diag(zm) - 1.0).max()
    if diag_dev > 1e-9:
        raise BadDiagonal(f"diagonal of z deviates from 1 by {diag_dev:.3e}")
    x = v.real * np.sqrt(np.clip(w, 1e-10, None) * (w > 1e-10))
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    kk = (big + 1) // 2
    fam = [o.matrix for o in sigma_observables(kk)[:big]]
    d = 2**kk
    alice = []
    bob = []
    for i in range(n):
        alice.append(Observable(sum(x[i, q] * fam[q] for q in range(big))))
    for j in range(m):
        bob.append(Observable(sum(x[n + j, q] * fam[q] for q in range(big)).T))
    return Strategy(d, d, tuple(alice), tuple(bob), maximally_entangled(d))


def simulate(g: XorGame, s: Strategy, rounds: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo referee: sample questions from |G|, outcomes from the Born rule.

    Returns the empirical bias (average of sign(G_st)·a·b) and its standard
    error.  With the projectors (I ± A_s)/2 and (I ± B_t)/2, the joint
    outcome probabilities are (1 + a⟨A_s⟩ + b⟨B_t⟩ + ab⟨A_s⊗B_t⟩)/4, read
    off the correlations of the observables extended by I.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds!r}")
    require_game_shape(g, s)
    # the last row and column are the marginals ⟨A_s⊗I⟩ and ⟨I⊗B_t⟩
    corr = _correlations(
        np.stack([o.matrix for o in s.alice] + [np.eye(s.d_A)]),
        np.stack([o.matrix for o in s.bob] + [np.eye(s.d_B)]),
        vec_to_matrix(s.state, s.d_A, s.d_B),
    ).real
    si, ti = np.nonzero(g.matrix)
    w = g.matrix[si, ti]
    # outcomes (a, b) in the order (+,+), (+,−), (−,+), (−,−)
    a, b = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    p4 = 1.0 + corr[si, -1, None] * a + corr[-1, ti, None] * b + corr[si, ti, None] * a * b
    p4 = np.clip(p4, 0.0, None)
    outcome_cdf = np.cumsum(p4 / p4.sum(axis=1, keepdims=True), axis=1)
    outcome_val = np.sign(w)[:, None] * a * b
    rng = np.random.default_rng(seed)
    q_draw = rng.choice(len(w), size=rounds, p=np.abs(w) / np.abs(w).sum())
    u = rng.random(rounds)
    idx = (u[:, None] > outcome_cdf[q_draw]).sum(axis=1)
    vals = outcome_val[q_draw, np.clip(idx, 0, 3)]
    mean = float(vals.mean())
    stderr = float(np.sqrt(max(0.0, 1.0 - mean * mean) / rounds))
    return mean, stderr


def embed_with_junk(
    s: Strategy,
    extra_A: int,
    extra_B: int,
    junk_alice: list[Observable] | None = None,
    junk_bob: list[Observable] | None = None,
) -> Strategy:
    """Direct-sum junk blocks onto every observable; the state is zero-padded.

    The state never touches the new sectors, so the bias is unchanged.
    """
    junk_alice = list(junk_alice or [])
    junk_bob = list(junk_bob or [])
    if extra_A < 0 or extra_B < 0:
        raise ValueError("extra dimensions must be >= 0")
    if extra_A > 0 and len(junk_alice) != len(s.alice):
        raise DimensionMismatch("need one junk block per Alice observable")
    if extra_B > 0 and len(junk_bob) != len(s.bob):
        raise DimensionMismatch("need one junk block per Bob observable")
    for o in junk_alice:
        if o.dim != extra_A:
            raise DimensionMismatch(f"Alice junk block is {o.dim}-dim, expected {extra_A}")
    for o in junk_bob:
        if o.dim != extra_B:
            raise DimensionMismatch(f"Bob junk block is {o.dim}-dim, expected {extra_B}")

    def extend(obs: tuple[Observable, ...], junk: list[Observable], extra: int):
        if extra == 0:
            return obs
        out = []
        for o, jk in zip(obs, junk):
            big = np.zeros((o.dim + extra, o.dim + extra), dtype=complex)
            big[: o.dim, : o.dim] = o.matrix
            big[o.dim :, o.dim :] = jk.matrix
            out.append(Observable(big))
        return tuple(out)

    new_alice = extend(s.alice, junk_alice, extra_A)
    new_bob = extend(s.bob, junk_bob, extra_B)
    padded = np.zeros((s.d_A + extra_A, s.d_B + extra_B), dtype=complex)
    padded[: s.d_A, : s.d_B] = vec_to_matrix(s.state, s.d_A, s.d_B)
    return Strategy(
        s.d_A + extra_A, s.d_B + extra_B, new_alice, new_bob, matrix_to_vec(padded)
    )


def _random_unit_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2
    return h / frobenius(h)


def _conjugate(o: Observable, theta: float, rng: np.random.Generator) -> Observable:
    h = _random_unit_hermitian(rng, o.dim)
    w, v = hermitian_eig(h)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    m = u @ o.matrix @ u.conj().T
    return Observable((m + m.conj().T) / 2)


def perturb(s: Strategy, theta: float, seed: int, include_bob: bool = False) -> Strategy:
    """Conjugate each Alice observable by exp(iθH) for an independent random
    unit-Frobenius Hermitian H; with include_bob the same happens to Bob."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    rng = np.random.default_rng(seed)
    if theta == 0.0:
        return s
    alice = tuple(_conjugate(o, theta, rng) for o in s.alice)
    bob = tuple(_conjugate(o, theta, rng) for o in s.bob) if include_bob else s.bob
    return Strategy(s.d_A, s.d_B, alice, bob, s.state)
