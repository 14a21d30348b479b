"""The paper's chain definitions, one product and one sign at a time, the
chain products with a new stack per bit and Alice's intertwiner residuals
against a signed copy of the chains, the Born-rule referee, one projector
product at a time, Bob's intertwiner residuals, one GEMM and one direct
difference per observable and by projection onto an orthonormal basis of
the chain span, relation extraction, one eigenpair at a time, the
observable constructors, one matrix at a time, and the Schmidt
decomposition from the eigenpairs of the Hermitian dilation.

The library computes all chain products at once, in one stack
(`structure._chain_products`), reads the insertion signs from one sign
vector (`structure._reference`, `structure._alice_residuals`),
takes the outcome statistics of `strategies.simulate` from the correlations,
Bob's residuals from one projection onto the span of the chain products
through their Gram matrices (`structure._chain_grams`), the relation
matrices U, V from one slice of the eigenpairs, and builds and conjugates
whole observable stacks (`strategies._kron_rows`,
`strategies._conjugate`), and takes the Schmidt decomposition from one SVD
(`linalg.schmidt`); these direct definitions are the oracles the tests
compare them with.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from xorgame.games import chshn_pair_order, symmetrize
from xorgame.linalg import DimensionMismatch, SchmidtDecomposition, frobenius, hermitian_eig
from xorgame.strategies import _SIGMA_X, _SIGMA_Y, _SIGMA_Z, require_observables
from xorgame import structure
from xorgame.structure import IndexOutOfRange, _reference, _state_chains


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


def chain_product(obs: list[np.ndarray], j: BitString) -> np.ndarray:
    """Ordered product O_1^{j_1} ··· O_n^{j_n}; identity for the zero string."""
    if len(obs) != j.n:
        raise DimensionMismatch(f"got {len(obs)} observables for {j.n} bits")
    d = len(obs[0]) if len(obs) else 1
    acc = np.eye(d, dtype=complex)
    for o, b in zip(obs, j.bits):
        if o.shape != (d, d):
            raise DimensionMismatch("observables have mixed dimensions")
        if b:
            acc = acc @ o
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


def stacked_chain_products(mats: np.ndarray) -> np.ndarray:
    """structure._chain_products by n batched doublings, each np.stack-ing
    the prefix products and the prefix products times O_t into a new
    stack."""
    d = mats.shape[-1]
    acc = np.eye(d, dtype=complex)[None]
    for o in mats:
        acc = np.stack((acc, acc @ o), axis=1).reshape(-1, d, d)
    return acc


def signed_copy_alice_residuals(chains: np.ndarray, s, n: int) -> tuple[float, ...]:
    """structure._alice_residuals with σ_i kept in a copy of the chains:
    signed holds σ_i(j)·C_j; since σ_i(j⊕e_i) = σ_i(j), its reversed view
    along bit i is the subtrahend of A_i·C_j, and σ_{i+1}(j) =
    σ_i(j)·(−1)^(j_i) flips the half with bit i set once observable i is
    done."""
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


def _pm_projectors(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = hermitian_eig(o)
    plus = v[:, w >= 0.0]
    minus = v[:, w < 0.0]
    return plus @ plus.conj().T, minus @ minus.conj().T


def born_simulate(g, s, rounds: int, seed: int) -> tuple[float, float]:
    """strategies.simulate with each joint outcome probability taken as
    ‖(P_a ⊗ Q_b)ψ‖² from the eigenprojectors of the observables, question
    by question; the same random draws in the same order."""
    mpsi = s.state
    questions = np.argwhere(g.matrix != 0.0)
    probs = np.array([abs(g.matrix[si, ti]) for si, ti in questions])
    probs = probs / probs.sum()
    alice_proj = [_pm_projectors(o) for o in s.alice]
    bob_proj = [_pm_projectors(o) for o in s.bob]
    outcome_cdf = np.empty((len(questions), 4))
    outcome_val = np.empty((len(questions), 4))
    for qi, (si, ti) in enumerate(questions):
        sign = 1.0 if g.matrix[si, ti] > 0 else -1.0
        table = []
        for a, pa in zip((1.0, -1.0), alice_proj[si]):
            am = pa @ mpsi
            for b, qb in zip((1.0, -1.0), bob_proj[ti]):
                p = frobenius(am @ qb.T) ** 2
                table.append((p, sign * a * b))
        p4 = np.clip(np.array([t[0] for t in table]), 0.0, None)
        outcome_cdf[qi] = np.cumsum(p4 / p4.sum())
        outcome_val[qi] = [t[1] for t in table]
    rng = np.random.default_rng(seed)
    q_draw = rng.choice(len(questions), size=rounds, p=probs)
    u = rng.random(rounds)
    idx = (u[:, None] > outcome_cdf[q_draw]).sum(axis=1)
    vals = outcome_val[q_draw, np.clip(idx, 0, 3)]
    mean = float(vals.mean())
    return mean, float(np.sqrt(max(0.0, 1.0 - mean * mean) / rounds))


def direct_bob_residuals(s, n: int) -> tuple[float, ...]:
    """Bob's residuals of structure.intertwiner_report in the 2ⁿ chain basis,
    column by column: 2ⁿ·res² = Σ_j ‖C_j B_abᵀ − (±F_a + F_b)_j‖² with
    F_t = τ_t(j)·C_{j⊕e_t}/√2 and + for a < b, each as one GEMM and a
    directly formed difference."""
    chains = _state_chains(s)[1]
    signs = _reference(n).signs
    rows = chains.reshape(-1, s.d_B)

    def flipped(t: int) -> np.ndarray:
        split = (2 ** (t - 1), 2, 2 ** (n - t), s.d_A * s.d_B)
        tau = signs[: split[2], None] / np.sqrt(2.0)
        return (chains.reshape(split)[:, ::-1] * tau).reshape(rows.shape)

    f = {t: flipped(t) for t in range(1, n + 1)}
    return tuple(
        frobenius(rows @ s.bob[col].T - ((1.0 if a < b else -1.0) * f[a] + f[b]))
        / np.sqrt(2.0**n)
        for col, (a, b) in enumerate(chshn_pair_order(n))
    )


def chain_span(s, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chains C with Q of orthonormal columns and R such that C = Q·R as
    a 2ⁿd_A × d_B matrix, from the chain-product stack P = [A^j], of which
    C = P·M_ψ: with PᴴP = VΛVᴴ, Q = P·V·Λ^(−1/2) spans P, which contains
    the span of the chains whatever the rank of M_ψ, and R = Λ^(1/2)·Vᴴ·M_ψ."""
    prods, chains = _state_chains(s)
    p = prods.reshape(-1, s.d_A)
    lam, v = np.linalg.eigh(p.conj().T @ p)
    root = np.sqrt(lam)
    r = (root[:, None] * v.conj().T) @ s.state
    return chains, p @ (v / root), r


def orthonormal_projection_bob_residuals(s, n: int) -> tuple[float, ...]:
    """Bob's residuals of structure.intertwiner_report by projection onto an
    orthonormal basis Q of the chain span (chain_span), in the row blocks of
    structure._bob_residuals: with G_t = QᴴF_t and E_t = F_t − Q·G_t,
    2ⁿ·res² = ‖R·B_abᵀ − (G_b ± G_a)‖² + H_aa + H_bb ± 2H_ab, H the real
    Gram matrix of the E_t; the row blocks are walked once for G and once
    for E."""
    chains, q, r = chain_span(s, n)
    ref = _reference(n)
    d_a, d_b = s.d_A, s.d_B
    lead = 0 if chains.nbytes <= structure._ONE_BLOCK_BYTES else 2
    blocks = list(itertools.product((0, 1), repeat=lead))
    rows = q.shape[0] >> lead
    bits = chains.reshape((2,) * n + (d_a * d_b,))
    e = np.empty((n, rows, d_b), dtype=complex)

    def fill(block):
        for t, tau in enumerate(ref.taus):
            flipped = bits[(slice(None),) * t + (slice(None, None, -1),)]
            np.multiply(flipped[block], tau[block], out=e[t].reshape(bits.shape[lead:]))

    g = np.zeros((n,) + r.shape, dtype=complex)
    for i, block in enumerate(blocks):
        fill(block)
        g += q[i * rows : (i + 1) * rows].conj().T @ e
    h = np.zeros((n, n))
    for i, block in enumerate(blocks):
        fill(block)
        e -= q[i * rows : (i + 1) * rows] @ g
        ev = e.reshape(n, -1).view(float)
        h += ev @ ev.T
    bob = s.bob.reshape(-1, d_b)
    g_t = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n, -1)
    inside = ((bob @ r.T).reshape(len(s.bob), -1) - ref.targets @ g_t).view(float)
    total = (inside * inside).sum(axis=1) + ((ref.targets @ h) * ref.targets).sum(axis=1)
    return tuple((np.sqrt(np.maximum(total, 0.0)) / np.sqrt(2.0**n)).tolist())


def loop_extract_relations(g, y, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """U and V of relations.extract_relations for a feasible y, one
    eigenpair at a time: from the largest eigenvalue λ of Diag(y) − G_sym
    down while λ > cutoff, w = √λ·(eigenvector) gives u = w[:n] and
    v = −w[n:]."""
    n, m = g.n_alice, g.n_bob
    w, vecs = hermitian_eig(np.diag(np.asarray(y, dtype=float)) - symmetrize(g))
    w = np.clip(w.real, 0.0, None)
    us, vs = [], []
    for idx in range(w.size - 1, -1, -1):
        if w[idx] <= cutoff:
            break
        wk = vecs[:, idx].real * np.sqrt(w[idx])
        us.append(wk[:n])
        vs.append(-wk[n:])
    return np.array(us).reshape(-1, n), np.array(vs).reshape(-1, m)


def kron_sigma_observables(k: int) -> np.ndarray:
    """strategies.sigma_observables, each observable as its own chain of
    np.kron over its k factors."""
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
        out.append(acc)
    return require_observables(out, "sigma")


def kron_canonical_alice(n: int) -> np.ndarray:
    """strategies._canonical_alice from kron_sigma_observables, one np.kron
    per observable for odd n."""
    k = n // 2
    fam = kron_sigma_observables(max(k, 1))
    if n % 2 == 0:
        return fam[: 2 * k]
    eye2 = np.eye(2, dtype=complex)
    return np.stack([np.kron(eye2, f) for f in fam[: 2 * k]] + [np.kron(_SIGMA_Z, fam[2 * k])])


def pairwise_matched_combinations(mats) -> np.ndarray:
    """strategies._matched_combinations, one ordered pair at a time."""
    combs = [mats[a - 1] + mats[b - 1] if a < b else mats[b - 1] - mats[a - 1]
             for a, b in chshn_pair_order(len(mats))]
    return np.stack(combs) / np.sqrt(2)


def per_matrix_conjugate(obs, theta: float, rng: np.random.Generator) -> np.ndarray:
    """strategies._conjugate, one observable at a time: a real and an
    imaginary d × d draw, then the checked eigensolver on H/‖H‖_F."""
    out = np.empty_like(obs)
    for i, o in enumerate(obs):
        h = rng.standard_normal(o.shape) + 1j * rng.standard_normal(o.shape)
        h = (h + h.conj().T) / 2
        w, v = hermitian_eig(h / frobenius(h))
        u = (v * np.exp(1j * theta * w)) @ v.conj().T
        out[i] = u @ o @ u.conj().T
    return out


def dilation_schmidt(w, d_A: int, d_B: int, cutoff: float = 1e-9) -> SchmidtDecomposition:
    """linalg.schmidt from the eigendecomposition of the Hermitian dilation
    [[0, M], [Mᴴ, 0]] of M = w read row-major: its eigenvalues are ±σ_i (and
    zeros), and the eigenvector of +σ_i is (u_i, conj(v_i))/√2."""
    m = np.asarray(w, dtype=complex).reshape(d_A, d_B)
    dil = np.zeros((d_A + d_B, d_A + d_B), dtype=complex)
    dil[:d_A, d_A:] = m
    dil[d_A:, :d_A] = m.conj().T
    vals, vecs = hermitian_eig(dil)
    floor = max(cutoff, 1e-14 * max(1.0, frobenius(m)))
    keep = np.nonzero(vals > floor)[0][::-1]  # descending singular values
    left = np.sqrt(2.0) * vecs[:d_A, keep]
    right = np.conj(np.sqrt(2.0) * vecs[d_A:, keep])
    return SchmidtDecomposition(vals[keep], left, right)
