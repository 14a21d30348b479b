"""Structure of optimal and near-optimal CHSH(n) strategies.

Optimal strategies are rigid: Schmidt coefficients come in equal blocks of
length 2^⌊n/2⌋, Alice's observables anticommute on the state's support, and
Bob's observables are the matched ±combinations of Alice's.  For strategies
that are only ε-optimal, an approximate intertwiner T maps the canonical
strategy into the given one with Frobenius-norm error O(n²√ε); this module
builds T, measures every residual, and checks the quantitative bounds.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .games import ChshnIndex, InvalidN, XorGame, chsh_game
from .linalg import (
    DimensionMismatch,
    frobenius,
    hermitian_eig,
    schmidt,
    sign_normalize,
    vec_to_matrix,
)
from .strategies import Observable, Strategy, _matched_combinations, bias, canonical_chshn, perturb

TSIRELSON_BIAS = 1.0 / np.sqrt(2.0)


class IndexOutOfRange(ValueError):
    """Observable index outside 1..n."""


@dataclass(frozen=True)
class BitString:
    """A length-n tuple of bits selecting which observables enter a product."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if len(bits) != self.n:
            raise DimensionMismatch(f"got {len(bits)} bits, expected {self.n}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
        object.__setattr__(self, "bits", bits)

    @staticmethod
    def all_strings(n: int) -> list["BitString"]:
        return [BitString(n, bits) for bits in itertools.product((0, 1), repeat=n)]


def chain_product(obs: list[Observable], j: BitString) -> np.ndarray:
    """Ordered product O_1^{j_1} ··· O_n^{j_n}; identity for the zero string."""
    if len(obs) != j.n:
        raise DimensionMismatch(f"got {len(obs)} observables for {j.n} bits")
    d = obs[0].dim if obs else 1
    acc = np.eye(d, dtype=complex)
    for o, b in zip(obs, j.bits):
        if o.dim != d:
            raise DimensionMismatch("observables have mixed dimensions")
        if b:
            acc = acc @ o.matrix
    return acc


def insertion_sign_left(i: int, j: BitString) -> int:
    """Sign picked up by moving one anticommuting factor from the left of a
    chain into slot i: (−1)^(number of set bits before i)."""
    if not 1 <= i <= j.n:
        raise IndexOutOfRange(f"i={i} outside 1..{j.n}")
    return -1 if sum(j.bits[: i - 1]) % 2 else 1


def insertion_sign_right(j: BitString, k: int) -> int:
    """Sign picked up by moving one anticommuting factor from the right of a
    chain into slot k: (−1)^(number of set bits after k)."""
    if not 1 <= k <= j.n:
        raise IndexOutOfRange(f"k={k} outside 1..{j.n}")
    return -1 if sum(j.bits[k:]) % 2 else 1


def _chain_products(obs: tuple[Observable, ...]) -> np.ndarray:
    """All 2ⁿ chain products O^j as a (2ⁿ, d, d) stack in BitString.all_strings
    order, built by n batched doublings."""
    mats = np.stack([o.matrix for o in obs])
    d = mats.shape[-1]
    acc = np.eye(d, dtype=complex)[None]
    for o in mats:
        acc = np.stack((acc, acc @ o), axis=1).reshape(-1, d, d)
    return acc


def _reference_family(ref: Strategy) -> np.ndarray:
    """Rows are the vectors (Ã^j ⊗ I)|ψ̃⟩ of a maximally entangled strategy."""
    chains = _chain_products(ref.alice)
    return chains.reshape(chains.shape[0], -1) / np.sqrt(ref.d_A)


def canonical_vector_family(n: int) -> list[np.ndarray]:
    """The 2ⁿ orthonormal vectors (Ã^j ⊗ I)|ψ̃⟩ of the canonical strategy."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN(f"need integer n >= 2, got {n!r}")
    return list(_reference_family(canonical_chshn(n)))


def _intertwiner(s: Strategy, n: int, ref: Strategy) -> np.ndarray:
    if len(s.alice) != n:
        raise DimensionMismatch(f"strategy has {len(s.alice)} Alice observables, expected {n}")
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    x = (_chain_products(s.alice) @ mpsi).reshape(2**n, -1)
    y = _reference_family(ref)
    return (x.T @ y.conj()) / np.sqrt(2.0**n)


def build_intertwiner(s: Strategy, n: int) -> np.ndarray:
    """T = (1/√2ⁿ) Σ_j (A^j ⊗ I)|ψ⟩ ⟨ψ̃|(Ã^j ⊗ I)†, as a d_A·d_B × d² matrix.

    The reference vectors are orthonormal and each A^j is unitary, so
    ‖T‖_F = 1 for every valid strategy.
    """
    return _intertwiner(s, n, canonical_chshn(n))


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

    ε is the bias deficit relative to 1/√2; residuals are compared against
    12n²√ε (Alice) and 17n²√ε (Bob) with a 1e-12 floating-point margin.
    """
    return _intertwiner_report(g, s, n, canonical_chshn(n))


def _intertwiner_report(g: XorGame, s: Strategy, n: int, ref: Strategy) -> IntertwinerReport:
    """intertwiner_report against ref, the caller's canonical_chshn(n)."""
    want_bob = n * (n - 1)
    if len(s.bob) != want_bob:
        raise DimensionMismatch(f"strategy has {len(s.bob)} Bob observables, expected {want_bob}")
    t = _intertwiner(s, n, ref)
    d = ref.d_A
    eps = max(0.0, 1.0 - bias(g, s) / TSIRELSON_BIAS)
    t4 = t.reshape(s.d_A, s.d_B, d, d)
    # Two buffers the size of T, reused for every observable: fresh
    # temporaries per residual cost as much time as the products.
    lhs = np.empty(t.size, dtype=complex)
    rhs = np.empty(t.size, dtype=complex)

    def residuals(layout: np.ndarray, ours, theirs) -> tuple[float, ...]:
        # layout puts our factor first and the reference factor last, so
        # (O⊗I)T and T(Õ⊗I) are two plain GEMMs on the same index order.
        # The difference is formed directly: 2‖T‖² − 2Re⟨X,Y⟩ would cancel
        # to rounding noise where the residual is near zero.
        ours_first = layout.reshape(layout.shape[0], -1)
        ref_last = layout.reshape(-1, d)
        out = []
        for o, ot in zip(ours, theirs):
            np.matmul(o.matrix, ours_first, out=lhs.reshape(ours_first.shape))
            np.matmul(ref_last, ot.matrix, out=rhs.reshape(ref_last.shape))
            out.append(frobenius(np.subtract(lhs, rhs, out=lhs)))
        return tuple(out)

    # t4 axes are (a, b, c, e): Alice, Bob, reference Alice, reference Bob.
    alice_res = residuals(np.ascontiguousarray(t4.transpose(0, 1, 3, 2)), s.alice, ref.alice)
    bob_res = residuals(np.ascontiguousarray(t4.transpose(1, 0, 2, 3)), s.bob, ref.bob)
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


def intertwiner_sweep(
    n_values, thetas, seeds
) -> Iterator[tuple[int, float, int, IntertwinerReport]]:
    """(n, θ, seed, report) for the canonical CHSH(n) strategy perturbed by
    θ with that seed, over the grid n_values × thetas × seeds in that order.

    The game and the canonical strategy, which is both the perturbed base
    and the intertwiner's reference, are built once per n.  An empty axis
    raises ValueError: a sweep without cells checks no bound.
    """
    if not (n_values and thetas and seeds):
        raise ValueError("sweep grid is empty")
    for n in n_values:
        g, _ = chsh_game(n)
        base = canonical_chshn(n)
        for theta in thetas:
            for seed in seeds:
                yield n, theta, seed, _intertwiner_report(g, perturb(base, theta, seed), n, base)


def anticommutation_residual(s: Strategy, n: int) -> float:
    """Σ_{i<j} ‖((A_iA_j + A_jA_i)/2 ⊗ I)|ψ⟩‖²; bounded by (1+√2)² n(n−1) ε."""
    if len(s.alice) != n:
        raise DimensionMismatch(f"strategy has {len(s.alice)} Alice observables, expected {n}")
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ac = (s.alice[i].matrix @ s.alice[j].matrix + s.alice[j].matrix @ s.alice[i].matrix) / 2.0
            total += float((np.abs(ac @ mpsi) ** 2).sum())
    return total


def ab_switch_check(s: Strategy, n: int, k: int) -> tuple[int, float]:
    """Best Bob-side surrogate for Alice's k-th observable.

    Minimizes ‖(A_k⊗I)|ψ⟩ − (I⊗N_l)|ψ⟩‖ over l ≠ k, where N_l is the
    sign-normalization of ±B_kl + B_lk (+ for k < l, − for k > l).  Returns
    the minimizing l and the deviation; bounded by (2√2+2)√n·√ε.
    """
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    if len(s.bob) != n * (n - 1):
        raise DimensionMismatch(f"strategy has {len(s.bob)} Bob observables, expected {n*(n-1)}")
    index = ChshnIndex(n)
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    ak = s.alice[k - 1].matrix
    best = None
    for l in range(1, n + 1):
        if l == k:
            continue
        sign = 1.0 if k < l else -1.0
        op = sign * s.bob[index.column(k, l)].matrix + s.bob[index.column(l, k)].matrix
        nrm = sign_normalize(op)
        dev = frobenius(ak @ mpsi - mpsi @ nrm.T)
        if best is None or dev < best[1]:
            best = (l, dev)
    return best


def normalization_lemma_check(
    r: Observable, s: Observable
) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed form for the normalization error of (R+S)/√2.

    With C = (RS+SR)/2, the square of (R+S)/√2 − sgn(R+S) equals
    C·(2I + C + 2√(I+C))⁻¹·C, and that square is dominated by C².  Returns
    (lhs², rhs², min eigenvalue of C² − lhs²).

    Since (R+S)² = 2(I+C), the rhs is evaluated on the eigenbasis of R+S with
    √(1+λ_C) = |λ_{R+S}|/√2, which is exact even when R+S is nearly singular.
    """
    if r.dim != s.dim:
        raise DimensionMismatch(f"dimensions differ: {r.dim} vs {s.dim}")
    rm, sm = r.matrix, s.matrix
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
    as the matched (A_a ± A_b)/√2.
    """
    if len(s.alice) != n or len(s.bob) != n * (n - 1):
        raise DimensionMismatch(
            f"strategy has {len(s.alice)}x{len(s.bob)} observables, "
            f"expected {n}x{n*(n-1)}"
        )
    dec = schmidt(s.state, s.d_A, s.d_B)
    rank = dec.rank
    block = 2 ** (n // 2)
    divisible = rank % block == 0
    coeffs = np.sort(dec.coefficients)[::-1]
    blocks_dev = 0.0
    for start in range(0, rank, block):
        chunk = coeffs[start : start + block]
        blocks_dev = max(blocks_dev, float(chunk.max() - chunk.min()))
    blocks_equal = divisible and blocks_dev <= tol
    p_a = dec.left_basis @ dec.left_basis.conj().T
    p_b = dec.right_basis @ dec.right_basis.conj().T
    eye_a = np.eye(s.d_A, dtype=complex)
    eye_b = np.eye(s.d_B, dtype=complex)
    inv_a = max(
        frobenius((eye_a - p_a) @ o.matrix @ p_a) for o in s.alice
    )
    inv_b = max(
        frobenius((eye_b - p_b) @ o.matrix @ p_b) for o in s.bob
    )
    anti = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            ac = s.alice[i].matrix @ s.alice[j].matrix + s.alice[j].matrix @ s.alice[i].matrix
            anti = max(anti, frobenius(p_a @ ac @ p_a))
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    combs = _matched_combinations([o.matrix for o in s.alice])
    bob_t = np.stack([o.matrix for o in s.bob]).transpose(0, 2, 1)
    b_dev = max(map(frobenius, combs @ mpsi - mpsi @ bob_t))
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
