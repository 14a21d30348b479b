"""Structure of optimal and near-optimal CHSH(n) strategies.

Optimal strategies are rigid: Schmidt coefficients come in equal blocks of
length 2^⌊n/2⌋, Alice's observables anticommute on the state's support, and
Bob's observables are the matched ±combinations of Alice's.  For strategies
that are only ε-optimal, an approximate intertwiner T maps the canonical
strategy into the given one with Frobenius-norm error O(n²√ε); this module
builds T, measures every residual, and checks the quantitative bounds.
The residuals are taken in the 2ⁿ chain basis T is built from: the
insertion signs say where each canonical observable sends each reference
vector, so no product touches the reference side.  Bob's n(n−1) residuals
come from one projection onto the span of the chain products, n chain-sized
GEMMs; ε comes from the relation residual.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .games import XorGame, _per_n, chsh_game, chshn_pair_order, require_chshn_game, require_chshn_n
from .linalg import DimensionMismatch, frobenius, hermitian_eig, schmidt, sign_normalize
from .relations import certify_epsilon, chshn_relations_form2
from .strategies import (
    Strategy,
    _canonical_alice,
    _matched_combinations,
    canonical_chshn,
    perturb,
    require_counts,
    require_observables,
)

TSIRELSON_BIAS = 1.0 / np.sqrt(2.0)


class IndexOutOfRange(ValueError):
    """Observable index outside 1..n."""


def require_chshn_shape(s: Strategy, n: int) -> Strategy:
    """s itself if it has the CHSH(n) shape, n Alice and n(n−1) Bob
    observables; InvalidN unless n is an integer >= 2, DimensionMismatch
    otherwise."""
    return require_counts(s, require_chshn_n(n), n * (n - 1), f"CHSH({n})")


def _chain_products(mats: np.ndarray) -> np.ndarray:
    """All 2ⁿ chain products O^j = O_1^{j_1} ··· O_n^{j_n} of an (n, d, d)
    stack as a (2ⁿ, d, d) stack, bit strings j in lexicographic order (bit 1
    most significant), built by n batched doublings."""
    d = mats.shape[-1]
    acc = np.eye(d, dtype=complex)[None]
    for o in mats:
        acc = np.stack((acc, acc @ o), axis=1).reshape(-1, d, d)
    return acc


@dataclass(frozen=True)
class _Reference:
    """The canonical side of every CHSH(n) intertwiner; it depends on n only.

    ybar: row j is the conjugate of (Ã^j ⊗ I)|ψ̃⟩, the reference family T
        is built from.
    signs: signs[k] = (−1)^(set bits of k) for k < 2^(n−1).  For j in
        _chain_products order, the insertion signs of anticommuting
        factors, Õ_t·Ã^j = σ_t(j)·Ã^(j⊕e_t) and Ã^j·Õ_t = τ_t(j)·Ã^(j⊕e_t),
        are τ_t(j) = (−1)^(set bits after t) = signs[j mod 2^(n−t)], which
        taus holds for the Bob residuals, and σ_t(j) = (−1)^(set bits
        before t) = signs[j >> (n−t+1)], which the Alice residuals build up
        by negating halves instead.
    taus: taus[t−1] is τ_t/√2 broadcast over the n bit axes of j and one
        trailing axis, the factor of the flipped term F_t.
    targets: row k holds the coefficients of F_1 … F_n in the target
        ±F_a + F_b of Bob column k = (a, b) of chshn_pair_order(n), the
        signs of game column k and of row k of the form-2 U.
    """

    ybar: np.ndarray
    signs: np.ndarray
    taus: tuple[np.ndarray, ...]
    targets: np.ndarray


@_per_n
def _reference(n: int) -> _Reference:
    """The reference data for CHSH(n), shared per n (_per_n); its arrays are
    read-only.  ybar comes from the raw canonical Alice matrices, not from
    canonical_chshn's symmetrized stack, whose signed zeros may differ."""
    mats = _canonical_alice(n)
    ybar = (_chain_products(mats).reshape(2**n, -1) / np.sqrt(mats.shape[-1])).conj()
    signs = np.ones(1)
    for _ in range(n - 1):
        signs = np.concatenate((signs, -signs))
    axes = (2,) * n + (1,)
    taus = tuple(
        np.broadcast_to(signs[: 2 ** (n - t)].reshape(axes[t:]) / np.sqrt(2.0), axes)
        for t in range(1, n + 1)
    )
    targets = np.sign(chshn_relations_form2(n).u)
    for arr in (ybar, signs, targets):
        arr.flags.writeable = False
    return _Reference(ybar, signs, taus, targets)


def canonical_vector_family(n: int) -> list[np.ndarray]:
    """The 2ⁿ orthonormal vectors (Ã^j ⊗ I)|ψ̃⟩ of the canonical strategy."""
    return list(_reference(n).ybar.conj())


def _state_chains(s: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """The chain products A^j, as a (2ⁿ, d_A, d_A) stack, and the chains
    C_j = A^j·M_ψ, as a (2ⁿ, d_A, d_B) stack, over Alice's n observables."""
    prods = _chain_products(s.alice)
    return prods, prods @ s.state


def _chain_grams(alice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Λ = PᴴP and the stack of W_t = PᴴP̃_t in one pass over the bits, for
    P = [A^j] as a 2ⁿd × d matrix and P̃_t = P with bit t of j flipped and
    τ_t(j) applied.  With A^j = A^p·A_t^(j_t)·A^s for the prefix p and the
    suffix s of bit t, W_t = Σ_s τ_t·(A^s)ᴴ(Λ_p·A_t + A_tᴴ·Λ_p)A^s, Λ_p the
    Gram matrix of the prefixes; each later bit u joins the prefixes,
    Λ ← Λ + A_uᴴ·Λ·A_u, and the suffixes, W_t ← W_t − A_uᴴ·W_t·A_u.  This
    is exact algebra, with no unitarity assumed; Λ ⪰ I since A^0 = I."""
    lam = np.eye(alice.shape[-1], dtype=complex)
    w = np.empty(alice.shape, dtype=complex)
    for t, (a, a_h) in enumerate(zip(alice, alice.conj().transpose(0, 2, 1))):
        w[:t] -= a_h @ w[:t] @ a
        la = lam @ a
        w[t] = la + la.conj().T
        lam += a_h @ la
    return lam, w


def _intertwiner(chains: np.ndarray, ref: _Reference) -> np.ndarray:
    x = chains.reshape(chains.shape[0], -1)
    return (x.T @ ref.ybar) / np.sqrt(float(x.shape[0]))


def build_intertwiner(s: Strategy, n: int) -> np.ndarray:
    """T = (1/√2ⁿ) Σ_j (A^j ⊗ I)|ψ⟩ ⟨ψ̃|(Ã^j ⊗ I)†, as a d_A·d_B × d² matrix.

    The reference vectors are orthonormal and each A^j is unitary, so
    ‖T‖_F = 1 for every valid strategy.
    """
    require_chshn_shape(s, n)
    return _intertwiner(_state_chains(s)[1], _reference(n))


@dataclass(frozen=True)
class IntertwinerReport:
    """T together with its per-observable intertwining residuals and bounds."""

    t: np.ndarray
    frob_norm: float
    alice_residuals: tuple[float, ...]
    bob_residuals: tuple[float, ...]
    epsilon: float
    alice_bound: float
    bob_bound: float
    bounds_hold: bool


def intertwiner_report(g: XorGame, s: Strategy, n: int) -> IntertwinerReport:
    """Build T and measure ‖(O⊗I)T − T(Õ⊗I)‖_F for every observable.

    The residuals are taken in the 2ⁿ chain basis, with C_j = A^j·M_ψ, the
    blocks T is built from.  A canonical observable maps reference vector j
    to ± another one (the insertion signs σ_i and τ_t of _Reference), and
    the reference vectors are orthonormal, so with j⊕e_i the string j with
    bit i flipped
      Alice i:    2ⁿ·res² = Σ_j ‖A_i C_j − σ_i(j) C_{j⊕e_i}‖²,
      Bob (a,b):  2ⁿ·res² = Σ_j ‖C_j B_abᵀ − (±F_a + F_b)_j‖²,
                  F_t = τ_t(j)·C_{j⊕e_t}/√2,
    + for a < b and − for a > b.  Alice takes one GEMM per observable; her
    first residual is rounding noise, as A_1 leads every chain: A_1 C_j =
    C_{j⊕e_1} up to rounding (A_1² = I), so T intertwines A_1 exactly.  Bob
    takes a projection onto the span of the chain-product stack P = [A^j],
    which holds every C_j B_abᵀ = A^j·M_ψ·B_abᵀ.  F_t = P̃_t·M_ψ/√2, so with
    Λ = PᴴP and W_t = PᴴP̃_t (_chain_grams), the in-span part of F_t is P·Y_t
    with Y_t = Λ⁻¹W_t·M_ψ/√2, the rest E_t = F_t − P·Y_t is orthogonal to P,
    and with D = M_ψ·B_abᵀ − (Y_b ± Y_a)
      2ⁿ·res² = tr(DᴴΛD) + H_aa + H_bb ± 2H_ab,
    H the real Gram matrix of the E_t, so n(n−1) columns cost n chain-sized
    GEMMs.  Both terms are formed from direct differences, so they carry an
    absolute error of about 1e-16, and a canonical strategy, for which
    Λ = 2ⁿ·I and W_t = 2ⁿ·Ã_t to the bit, gets residuals of exactly 0.

    g is checked to be CHSH(n) (require_chshn_game), so that a caller such as
    the CLI can name a wrong game file; ε is certify_epsilon of the CHSH(n)
    form-2 relations at β = 1/√2, by the residual identity the bias deficit
    relative to the optimum, summed from squares so that nothing cancels.
    Residuals are compared against 12n²√ε (Alice) and 17n²√ε (Bob) with a
    1e-12 floating-point margin.
    """
    require_chshn_shape(s, n)
    require_chshn_game(g, n)
    ref = _reference(n)
    eps = certify_epsilon(g, s, chshn_relations_form2(n), TSIRELSON_BIAS)
    prods, chains = _state_chains(s)
    bob_res = _bob_residuals(prods, chains, s, n, ref)
    del prods
    alice_res = _alice_residuals(chains, s, n)
    t = _intertwiner(chains, ref)
    a_bound = 12.0 * n * n * np.sqrt(eps)
    b_bound = 17.0 * n * n * np.sqrt(eps)
    holds = all(r <= a_bound + 1e-12 for r in alice_res) and all(
        r <= b_bound + 1e-12 for r in bob_res
    )
    return IntertwinerReport(
        t=t,
        frob_norm=frobenius(t),
        alice_residuals=alice_res,
        bob_residuals=bob_res,
        epsilon=eps,
        alice_bound=a_bound,
        bob_bound=b_bound,
        bounds_hold=holds,
    )


def _alice_residuals(chains: np.ndarray, s: Strategy, n: int) -> tuple[float, ...]:
    """Alice's residuals, in the layout (a, j, b) where each A_i is one GEMM.

    The difference is formed directly: ‖X‖² − 2Re⟨X,Y⟩ + ‖Y‖² would cancel
    to rounding noise where the residual is near zero.  signed holds
    σ_i(j)·C_j; since σ_i(j⊕e_i) = σ_i(j), its reversed view along bit i is
    the subtrahend, and σ_{i+1}(j) = σ_i(j)·(−1)^(j_i) flips the half with
    bit i set once observable i is done.
    """
    d_a, d_b = s.d_A, s.d_B
    scale = float(np.sqrt(2.0**n))
    ours = np.ascontiguousarray(chains.transpose(1, 0, 2))
    signed = ours.copy()
    lhs = np.empty(chains.size, dtype=complex)
    res = []
    for i, o in enumerate(s.alice):
        split = (d_a, 2**i, 2, 2 ** (n - i - 1), d_b)
        np.matmul(o, ours.reshape(d_a, -1), out=lhs.reshape(d_a, -1))
        diff = lhs.reshape(split)
        np.subtract(diff, signed.reshape(split)[:, :, ::-1], out=diff)
        res.append(frobenius(lhs) / scale)
        signed.reshape(split)[:, :, 1] *= -1
    return tuple(res)


# Chain stacks up to this size (n ≤ 6 at the canonical dimensions) are
# projected in one block; larger ones in four, along the two leading bits of
# j, so that the E_t stack holds n/4 chain stacks instead of n.
_ONE_BLOCK_BYTES = 2**18


def _bob_residuals(
    prods: np.ndarray, chains: np.ndarray, s: Strategy, n: int, ref: _Reference
) -> tuple[float, ...]:
    """Bob's residuals by projection onto the span of the chain-product
    stack prods (see intertwiner_report), one block of the E_t rows at a
    time."""
    d_a, d_b = s.d_A, s.d_B
    lam, w = _chain_grams(s.alice)
    y = (np.linalg.solve(lam, w) / np.sqrt(2.0)) @ s.state
    p = prods.reshape(-1, d_a)
    lead = 0 if chains.nbytes <= _ONE_BLOCK_BYTES else 2
    rows = p.shape[0] >> lead
    bits = chains.reshape((2,) * n + (d_a * d_b,))
    e = np.empty((n, rows, d_b), dtype=complex)
    buf = np.empty((rows, d_b), dtype=complex)
    h = np.zeros((n, n))
    for i, block in enumerate(itertools.product((0, 1), repeat=lead)):
        # E_t on the rows of a block: F_t, the chains with the axis of bit t
        # reversed times τ_t/√2, less P·Y_t
        np.matmul(p[i * rows : (i + 1) * rows], y, out=e)
        for t, tau in enumerate(ref.taus):
            flipped = bits[(slice(None),) * t + (slice(None, None, -1),)]
            np.multiply(flipped[block], tau[block], out=buf.reshape(bits.shape[lead:]))
            np.subtract(buf, e[t], out=e[t])
        ev = e.reshape(n, -1).view(float)
        h += ev @ ev.T

    # D for every column k: M_ψ·B_kᵀ − Σ_t targets[k, t]·Y_t
    dev = s.state @ s.bob.transpose(0, 2, 1) - (ref.targets @ y.reshape(n, -1)).reshape(-1, d_a, d_b)
    inside = (dev.conj() * (lam @ dev)).real.sum(axis=(1, 2))
    total = inside + ((ref.targets @ h) * ref.targets).sum(axis=1)
    return tuple((np.sqrt(np.maximum(total, 0.0)) / np.sqrt(2.0**n)).tolist())


def intertwiner_sweep(
    n_values, thetas, seeds
) -> Iterator[tuple[int, float, int, IntertwinerReport]]:
    """(n, θ, seed, report) for the canonical CHSH(n) strategy perturbed by
    θ with that seed, over the grid n_values × thetas × seeds in that order.

    The game, the canonical strategy (the perturbed base), the form-2
    relations and the intertwiner's reference data depend on n alone and
    are built once per process and shared read-only (games._per_n), so a
    cell pays only for its perturbed strategy.  An empty axis raises
    ValueError: a sweep without cells checks no bound.
    """
    if not (n_values and thetas and seeds):
        raise ValueError("sweep grid is empty")
    for n in n_values:
        g, _ = chsh_game(n)
        base = canonical_chshn(n)
        for theta in thetas:
            for seed in seeds:
                yield n, theta, seed, intertwiner_report(g, perturb(base, theta, seed), n)


def _anticommutators(alice: np.ndarray) -> np.ndarray:
    """A_iA_j + A_jA_i for every pair i < j, stacked in lexicographic order."""
    i, j = np.triu_indices(len(alice), 1)
    return alice[i] @ alice[j] + alice[j] @ alice[i]


def anticommutation_residual(s: Strategy, n: int) -> float:
    """Σ_{i<j} ‖((A_iA_j + A_jA_i)/2 ⊗ I)|ψ⟩‖²; bounded by (1+√2)² n(n−1) ε."""
    require_chshn_shape(s, n)
    return float((np.abs(_anticommutators(s.alice) / 2.0 @ s.state) ** 2).sum())


def ab_switch_check(s: Strategy, n: int, k: int) -> tuple[int, float]:
    """Best Bob-side surrogate for Alice's k-th observable.

    Minimizes ‖(A_k⊗I)|ψ⟩ − (I⊗N_l)|ψ⟩‖ over l ≠ k, where N_l is the
    sign-normalization of ±B_kl + B_lk (+ for k < l, − for k > l).  Returns
    the minimizing l and the deviation; bounded by (2√2+2)√n·√ε.
    """
    require_chshn_shape(s, n)
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    ak = s.alice[k - 1]
    best = None
    for t, (a, l) in enumerate(chshn_pair_order(n)):
        if a != k:
            continue
        sign = 1.0 if k < l else -1.0
        nrm = sign_normalize(sign * s.bob[t] + s.bob[t ^ 1])
        dev = frobenius(ak @ s.state - s.state @ nrm.T)
        if best is None or dev < best[1]:
            best = (l, dev)
    return best


def normalization_lemma_check(r, s) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed form for the normalization error of (R+S)/√2.

    With C = (RS+SR)/2, the square of (R+S)/√2 − sgn(R+S) equals
    C·(2I + C + 2√(I+C))⁻¹·C, and that square is dominated by C².  Returns
    (lhs², rhs², min eigenvalue of C² − lhs²).

    Since (R+S)² = 2(I+C), the rhs is evaluated on the eigenbasis of R+S with
    √(1+λ_C) = |λ_{R+S}|/√2, which is exact even when R+S is nearly singular.
    """
    if np.shape(r) != np.shape(s):
        raise DimensionMismatch(f"shapes differ: {np.shape(r)} vs {np.shape(s)}")
    rm, sm = require_observables((r, s), "(R, S)")
    c = (rm @ sm + sm @ rm) / 2.0
    total = rm + sm
    lhs = total / np.sqrt(2.0) - sign_normalize(total)
    lhs_sq = lhs @ lhs
    mu, vecs = hermitian_eig(total)
    lam = mu * mu / 2.0 - 1.0
    root = np.abs(mu) / np.sqrt(2.0)
    rhs_eigs = (lam / (1.0 + root)) ** 2
    rhs_sq = (vecs * rhs_eigs) @ vecs.conj().T
    gap = c @ c - lhs_sq
    gap_eigs, _ = hermitian_eig((gap + gap.conj().T) / 2.0)
    return lhs_sq, rhs_sq, float(gap_eigs[0].real)


@dataclass(frozen=True)
class StructureReport:
    """Deviations of a strategy from the rigid optimal CHSH(n) form."""

    schmidt_rank: int
    block_size: int
    rank_divisible: bool
    blocks_equal: bool
    blocks_max_deviation: float
    support_invariant_A: float
    support_invariant_B: float
    anticommute_on_support: float
    b_block_relation: float
    verdict: bool


def verify_optimal_form(s: Strategy, n: int, tol: float = 1e-8) -> StructureReport:
    """Check the rigid form of an optimal CHSH(n) strategy.

    Schmidt coefficients must be equal within blocks of 2^⌊n/2⌋ and the rank
    divisible by the block size; the observables must preserve the Schmidt
    supports, Alice's must anticommute there, and Bob's must act on the state
    as the matched (A_a ± A_b)/√2.  tol must be finite and >= 0.
    """
    require_chshn_shape(s, n)
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    dec = schmidt(s.state, s.d_A, s.d_B)
    rank = dec.rank
    block = 2 ** (n // 2)
    divisible = rank % block == 0
    blocks_dev = 0.0
    for start in range(0, rank, block):
        chunk = dec.coefficients[start : start + block]
        blocks_dev = max(blocks_dev, float(chunk.max() - chunk.min()))
    blocks_equal = divisible and blocks_dev <= tol
    p_a = dec.left_basis @ dec.left_basis.conj().T
    p_b = dec.right_basis @ dec.right_basis.conj().T
    inv_a = max(map(frobenius, (np.eye(s.d_A) - p_a) @ s.alice @ p_a))
    inv_b = max(map(frobenius, (np.eye(s.d_B) - p_b) @ s.bob @ p_b))
    anti = max(map(frobenius, p_a @ _anticommutators(s.alice) @ p_a))
    combs = _matched_combinations(s.alice)
    b_dev = max(map(frobenius, combs @ s.state - s.state @ s.bob.transpose(0, 2, 1)))
    verdict = (
        divisible
        and blocks_dev <= tol
        and inv_a <= tol
        and inv_b <= tol
        and anti <= tol
        and b_dev <= tol
    )
    return StructureReport(
        schmidt_rank=rank,
        block_size=block,
        rank_divisible=divisible,
        blocks_equal=blocks_equal,
        blocks_max_deviation=blocks_dev,
        support_invariant_A=float(inv_a),
        support_invariant_B=float(inv_b),
        anticommute_on_support=float(anti),
        b_block_relation=float(b_dev),
        verdict=bool(verdict),
    )
