"""Quantum strategies for XOR games.

A strategy is a stack of ±1 observables per player plus a shared bipartite
state.  This module evaluates biases, builds the anticommuting observable
family and the canonical CHSH(n) strategies, converts feasible correlation
matrices into strategies, runs Monte-Carlo referees, and manufactures
embedded/perturbed variants used by the verification machinery.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .games import XorGame, _per_n, chshn_pair_order, require_chshn_n
from .linalg import DimensionMismatch, NonHermitian, frobenius, hermitian_eig

OBSERVABLE_HERMITIAN_TOL = 1e-10
OBSERVABLE_SQUARE_TOL = 1e-9
STATE_NORM_TOL = 1e-10

_EYE2 = np.eye(2, dtype=complex)
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


def require_observables(obs, name: str) -> np.ndarray:
    """obs as a read-only (k, d, d) stack of ±1 observables.

    Each must be Hermitian within OBSERVABLE_HERMITIAN_TOL and is stored
    symmetrized, as (O + O†)/2, which must square to I within
    OBSERVABLE_SQUARE_TOL.  An error names the stack by name and the
    observable by its index."""
    stack = np.ascontiguousarray(obs, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise DimensionMismatch(f"{name} must be a stack of square matrices, got shape {stack.shape}")
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"{name} observable {bad[0]} contains non-finite entries")
    adjoint = stack.conj().transpose(0, 2, 1)
    dev = np.abs(stack - adjoint).max(axis=(1, 2))
    bad = np.flatnonzero(dev > OBSERVABLE_HERMITIAN_TOL)
    if bad.size:
        raise NonHermitian(
            f"{name} observable {bad[0]} deviates from Hermitian by {dev[bad[0]]:.3e} "
            f"(tolerance {OBSERVABLE_HERMITIAN_TOL:.1e})"
        )
    stack = (stack + adjoint) / 2
    dev = np.abs(stack @ stack - np.eye(stack.shape[1])).max(axis=(1, 2))
    bad = np.flatnonzero(dev > OBSERVABLE_SQUARE_TOL)
    if bad.size:
        raise ValueError(
            f"{name} observable {bad[0]} squared deviates from identity by {dev[bad[0]]:.3e}"
        )
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class Strategy:
    """Alice's (n, d_A, d_A) and Bob's (m, d_B, d_B) stacks of ±1
    observables (require_observables) and a shared unit state on
    C^d_A ⊗ C^d_B, given as a vector Σ ψ_ij |i⟩⊗|j⟩ or as its matrix and
    stored as the read-only d_A × d_B matrix M_ψ = Σ ψ_ij |i⟩⟨j|."""

    alice: np.ndarray
    bob: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        alice = require_observables(self.alice, "alice")
        bob = require_observables(self.bob, "bob")
        d_a, d_b = alice.shape[-1], bob.shape[-1]
        psi = np.array(self.state, dtype=complex)
        if psi.shape not in ((d_a * d_b,), (d_a, d_b)):
            raise DimensionMismatch(
                f"state has shape {psi.shape}, observables are {d_a}- and {d_b}-dim"
            )
        if not np.isfinite(psi).all():
            raise ValueError("state contains non-finite entries")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1")
        psi = psi.reshape(d_a, d_b)
        psi.flags.writeable = False
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "state", psi)

    @property
    def d_A(self) -> int:
        return self.alice.shape[-1]

    @property
    def d_B(self) -> int:
        return self.bob.shape[-1]


def maximally_entangled(d: int) -> np.ndarray:
    """(1/√d) Σ_i |i⟩⊗|i⟩."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


def require_question_counts(n: int, m: int) -> None:
    """ValueError unless n, m >= 1, the question counts of any strategy."""
    if n < 1 or m < 1:
        raise ValueError(f"a strategy needs n, m >= 1 questions, got n = {n}, m = {m}")


def require_counts(s: Strategy, n_alice: int, n_bob: int, wanter: str) -> Strategy:
    """s itself if it has n_alice Alice and n_bob Bob observables;
    DimensionMismatch naming wanter, what asked for them, otherwise."""
    if (len(s.alice), len(s.bob)) != (n_alice, n_bob):
        raise DimensionMismatch(f"strategy has {len(s.alice)}x{len(s.bob)} observables, "
                                f"{wanter} wants {n_alice}x{n_bob}")
    return s


def require_game_shape(g: XorGame, s: Strategy) -> Strategy:
    """s itself if it has one observable per question of g;
    DimensionMismatch otherwise."""
    return require_counts(s, g.n_alice, g.n_bob, "game")


def _correlations(alice: np.ndarray, bob: np.ndarray, m: np.ndarray) -> np.ndarray:
    """⟨ψ|A_s⊗B_t|ψ⟩ for the (n, d_A, d_A) and (k, d_B, d_B) observable
    stacks and M_ψ, as an n × k complex matrix."""
    # ⟨ψ|A_s⊗B_t|ψ⟩ = tr(M†A_sM·B_tᵀ) = Σ_bb' (M†A_sM)_bb' (B_t)_bb'
    left = m.conj().T @ (alice @ m)
    return left.reshape(len(alice), -1) @ bob.reshape(len(bob), -1).T


def bias(g: XorGame, s: Strategy) -> float:
    """Success bias Σ_st G_st ⟨ψ| A_s ⊗ B_t |ψ⟩."""
    require_game_shape(g, s)
    total = (g.matrix * _correlations(s.alice, s.bob, s.state)).sum()
    if abs(total.imag) > 1e-8:
        raise NonRealBias(f"bias has imaginary part {total.imag:.3e}")
    return float(total.real)


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] ⊗ b[i] for every i of two equally long stacks of square
    matrices, by the elementwise products np.kron forms."""
    k, p, q = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, p * q, p * q)


def sigma_observables(k: int) -> np.ndarray:
    """2k+1 pairwise anticommuting ±1 observables on C^(2^k), as a read-only
    (2k+1, 2^k, 2^k) stack (require_observables).

    Index i = 2m-1 places σ_x at slot m after m-1 σ_y factors, i = 2m places
    σ_z there, and i = 2k+1 is σ_y on every slot.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidK(f"need integer k >= 1, got {k!r}")
    # slot m (from 0) of every observable: I before its σ_x, σ_z pair, σ_y after
    slots = (np.stack([_EYE2] * 2 * m + [_SIGMA_X, _SIGMA_Z] + [_SIGMA_Y] * (2 * (k - m) - 1))
             for m in range(k))
    return require_observables(functools.reduce(_kron_rows, slots), "sigma")


def _matched_combinations(mats: np.ndarray) -> np.ndarray:
    """The matched answers (±A_a + A_b)/√2 of chshn_pair_order to Alice's
    (n, d, d) stack, stacked in column order."""
    a, b = np.array(chshn_pair_order(len(mats))).T - 1
    return np.where((a < b)[:, None, None], mats[a] + mats[b], mats[b] - mats[a]) / np.sqrt(2)


def _canonical_alice(n: int) -> np.ndarray:
    """Alice's n pairwise anticommuting matrices of canonical_chshn(n) on
    C^(2^⌈n/2⌉), as an (n, d, d) stack taken from the σ family."""
    k = require_chshn_n(n) // 2
    fam = sigma_observables(max(k, 1))
    if n % 2 == 0:
        return fam[: 2 * k]
    return _kron_rows(np.stack([_EYE2] * 2 * k + [_SIGMA_Z]), fam)


@_per_n
def canonical_chshn(n: int) -> Strategy:
    """The canonical optimal CHSH(n) strategy on C^(2^⌈n/2⌉) ⊗ C^(2^⌈n/2⌉),
    checked once and shared per n (_per_n).

    Alice's observables anticommute pairwise; Bob answers each ordered pair
    with the transpose of its matched answer (±A_a + A_b)/√2 (see
    chshn_pair_order); the state is maximally entangled.
    """
    alice = _canonical_alice(n)
    bob = _matched_combinations(alice).transpose(0, 2, 1)
    return Strategy(alice, bob, maximally_entangled(alice.shape[-1]))


def tsirelson_strategy(z, n: int, m: int) -> Strategy:
    """Realize a feasible correlation matrix as a quantum strategy.

    Gram vectors x_i of z (rows of V·√Λ, eigenvalues clipped at 1e-10 and the
    vectors renormalized) are contracted against the anticommuting family:
    A_i = x_i·σ⃗ and B_j = (x_{n+j}·σ⃗)ᵀ on a maximally entangled state, so
    that ⟨ψ|A_i⊗B_j|ψ⟩ = x_i·x_{n+j} = z[i, n+j].  z is read as its real
    part, and rejected if an imaginary part exceeds 1e-9.
    """
    require_question_counts(n, m)
    zm = np.asarray(z)
    if np.abs(zm.imag).max(initial=0.0) > 1e-9:
        raise ValueError("correlation matrix must be real")
    zm = np.asarray(zm.real, dtype=float)
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
    fam = sigma_observables(kk)
    # x_i·σ⃗ for every i at once, one term of σ⃗ at a time in the order of q
    obs = np.zeros((big,) + fam.shape[1:], dtype=complex)
    for q in range(big):
        obs += x[:, q, None, None] * fam[q]
    return Strategy(obs[:n], obs[n:].transpose(0, 2, 1), maximally_entangled(2**kk))


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
        np.concatenate((s.alice, np.eye(s.d_A)[None])),
        np.concatenate((s.bob, np.eye(s.d_B)[None])),
        s.state,
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
    s: Strategy, extra_A: int, extra_B: int, junk_alice=None, junk_bob=None
) -> Strategy:
    """Direct-sum junk blocks onto every observable; the state is zero-padded.

    junk_alice and junk_bob are (n, extra_A, extra_A) and (m, extra_B,
    extra_B) stacks, one block per observable, needed when the extra
    dimension is positive and refused when it is 0.  The state never
    touches the new sectors, so the bias is unchanged.
    """
    if extra_A < 0 or extra_B < 0:
        raise ValueError("extra dimensions must be >= 0")

    def extend(obs: np.ndarray, junk, extra: int, name: str) -> np.ndarray:
        if extra == 0 and junk is None:
            return obs
        if extra == 0 or np.shape(junk) != (len(obs), extra, extra):
            want = f"one {extra}x{extra} block per observable" if extra else "none for extra dimension 0"
            raise DimensionMismatch(f"{name} junk is {np.shape(junk)}, want {want}")
        big = np.pad(obs, ((0, 0), (0, extra), (0, extra)))
        big[:, -extra:, -extra:] = junk
        return big

    psi = np.pad(s.state, ((0, extra_A), (0, extra_B)))
    return Strategy(
        extend(s.alice, junk_alice, extra_A, "Alice"), extend(s.bob, junk_bob, extra_B, "Bob"), psi
    )


def _conjugate(obs: np.ndarray, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Each observable of the stack conjugated by its own exp(iθH), H an
    independent random Hermitian of unit Frobenius norm."""
    # per observable, a real then an imaginary d × d block of the stream
    re, im = rng.standard_normal((len(obs), 2) + obs.shape[1:]).transpose(1, 0, 2, 3)
    h = re + 1j * im
    h = (h + h.conj().transpose(0, 2, 1)) / 2
    # exactly Hermitian, so eigh needs no check; one norm per matrix
    w, v = np.linalg.eigh(h / np.array([*map(frobenius, h)])[:, None, None])
    u = (v * np.exp(1j * theta * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return u @ obs @ u.conj().transpose(0, 2, 1)


def perturb(s: Strategy, theta: float, seed: int, include_bob: bool = False) -> Strategy:
    """Conjugate each Alice observable by exp(iθH) for an independent random
    unit-Frobenius Hermitian H; with include_bob the same happens to Bob."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    rng = np.random.default_rng(seed)
    if theta == 0.0:
        return s
    alice = _conjugate(s.alice, theta, rng)
    bob = _conjugate(s.bob, theta, rng) if include_bob else s.bob
    return Strategy(alice, bob, s.state)
