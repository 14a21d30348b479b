"""XOR game matrices: validation, the CHSH(n) family, symmetrization, classical bias.

A two-player XOR game is stored as a real matrix G with Σ_st |G_st| = 1; entry
G_st carries both the referee's question distribution π(s,t) = |G_st| and the
winning sign V(s,t) = sign(G_st).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

NORMALIZATION_TOL = 1e-12
# Entries of one sign-vector product S @ m in classical_bias (2 MB of floats).
CLASSICAL_CHUNK_ENTRIES = 1 << 18


class NotNormalized(ValueError):
    """Absolute entries of a game matrix must sum to 1."""


class ZeroMatrix(ValueError):
    """All-zero matrix cannot be normalized into a game."""


class InvalidN(ValueError):
    """CHSH(n) requires n >= 2."""


class TooLarge(ValueError):
    """Brute-force enumeration guard exceeded."""


@dataclass(frozen=True)
class XorGame:
    """Normalized real game matrix with question-set sizes; the matrix is
    stored as a read-only copy.  labels, if given, is a tuple of n_bob
    strings, one per column."""

    n_alice: int
    n_bob: int
    matrix: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.n_alice, self.n_bob) or m.size == 0:
            raise ValueError(f"matrix shape {m.shape} does not match {self.n_alice}x{self.n_bob}")
        if not np.all(np.isfinite(m)):
            raise ValueError("game matrix contains non-finite entries")
        total = np.abs(m).sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"sum of |entries| is {float(total)!r}, must be 1 within {NORMALIZATION_TOL}")
        if self.labels is not None and not (
            isinstance(self.labels, tuple) and list(map(type, self.labels)) == [str] * self.n_bob
        ):
            raise ValueError(f"labels must be a tuple of n_bob = {self.n_bob} strings, got {self.labels!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def new_game(matrix, normalize: bool = False, labels: tuple[str, ...] | None = None) -> XorGame:
    """Validate a real matrix as an XOR game; optionally rescale to unit ℓ1 mass."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"game matrix must be non-empty 2-d, got shape {m.shape}")
    total = np.abs(m).sum()
    if total == 0.0:
        raise ZeroMatrix("all entries are zero; normalization impossible")
    if normalize:
        with np.errstate(invalid="ignore"):  # an inf total gives NaN, which XorGame rejects
            m = m / total
    return XorGame(m.shape[0], m.shape[1], m, labels)


def chshn_pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Bob's ordered-pair questions in CHSH(n), in column order.

    Unordered pairs ascend lexicographically and each gives (a, b) then
    (b, a): (1,2),(2,1),(1,3),(3,1),...,(n-1,n),(n,n-1).  Every pair rule
    in the package rests on two invariants of this order: column t ^ 1 is
    column t reversed, and column t = (a, b) has matched sign + exactly
    when a < b.  The game weighs column (a, b) with the matched sign at
    row a and + at row b, and Bob's optimal answer to it is
    (±A_a + A_b)/√2: (A_a + A_b)/√2 if a < b, (A_b − A_a)/√2 if a > b.
    """
    return tuple(
        p for a, b in itertools.combinations(range(1, n + 1), 2) for p in ((a, b), (b, a))
    )


def require_chshn_n(n) -> int:
    """n as an int if it is an integer >= 2, as every CHSH(n) entry point
    needs; InvalidN otherwise."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN(f"CHSH(n) needs integer n >= 2, got {n!r}")
    return int(n)


def chshn_matrix(n: int) -> np.ndarray:
    """The CHSH(n) game matrix: Alice gets i ∈ {1..n}, Bob an ordered pair
    of chshn_pair_order(n); each column weighs 1/(2·n(n−1)) at its two
    rows, with the matched sign at its first."""
    pairs = chshn_pair_order(require_chshn_n(n))
    w = 1.0 / (2 * n * (n - 1))
    m = np.zeros((n, len(pairs)))
    for t, (a, b) in enumerate(pairs):
        m[a - 1, t] = w if a < b else -w
        m[b - 1, t] = w
    return m


def chsh_game(n: int) -> tuple[XorGame, tuple[tuple[int, int], ...]]:
    """The CHSH(n) game, matrix chshn_matrix(n), and its column order
    chshn_pair_order(n)."""
    m = chshn_matrix(n)
    pairs = chshn_pair_order(int(n))
    labels = tuple(f"{a},{b}" for a, b in pairs)
    return XorGame(int(n), len(pairs), m, labels), pairs


def symmetrize(g: XorGame) -> np.ndarray:
    """The symmetric objective [[0, G/2], [Gᵀ/2, 0]] fed to the SDP."""
    n, m = g.n_alice, g.n_bob
    out = np.zeros((n + m, n + m))
    out[:n, n:] = g.matrix / 2
    out[n:, :n] = g.matrix.T / 2
    return out


def classical_bias(g: XorGame) -> float:
    """Best deterministic bias max_{a,b ∈ {±1}} Σ G_st a_s b_t by enumeration.

    Only the player with fewer questions is enumerated; the other player's
    best reply to each sign vector is exact, so 2^min(n_alice, n_bob) vectors
    suffice, and half of them, since a and −a score the same.  Sign vectors
    are multiplied in chunks of CLASSICAL_CHUNK_ENTRIES product entries.
    """
    m = g.matrix if g.n_alice <= g.n_bob else g.matrix.T
    k, width = m.shape
    if k > 24:
        raise TooLarge(f"{k} questions on the smaller side exceed the enumeration guard of 24")
    count = 1 << (k - 1)  # the first sign is fixed to +1
    rows = max(1, CLASSICAL_CHUNK_ENTRIES // width)
    shifts = np.arange(k - 1)
    best = -np.inf
    for start in range(0, count, rows):
        idx = np.arange(start, min(start + rows, count))
        signs = np.ones((idx.size, k))
        signs[:, 1:] = 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)
        best = max(best, float(np.abs(signs @ m).sum(axis=1).max()))
    return best
