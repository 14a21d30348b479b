import numpy as np
import pytest


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + h.conj().T) / 2


def random_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random ±1 observable: random eigenbasis, random ±1 spectrum."""
    h = random_hermitian(rng, d)
    w, v = np.linalg.eigh(h)
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    m = (v * signs) @ v.conj().T
    return (m + m.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def near_optimal_variants(n: int) -> list:
    """Perturbed CHSH(n) strategies for comparing batched kernels with their
    per-observable references: one on C^d ⊗ C^d, and two junk-embedded ones
    on C^(d+3) ⊗ C^(d+2) whose residuals are nonzero, the second with a
    random state that reaches every sector."""
    from xorgame.strategies import Strategy, canonical_chshn, embed_with_junk, perturb

    rng = np.random.default_rng(1000 + n)
    s = canonical_chshn(n)
    emb = embed_with_junk(
        s,
        3,
        2,
        [random_observable(rng, 3) for _ in s.alice],
        [random_observable(rng, 2) for _ in s.bob],
    )
    mixed = perturb(emb, 0.1, seed=n + 1, include_bob=True)
    psi = rng.standard_normal(emb.d_A * emb.d_B) + 1j * rng.standard_normal(emb.d_A * emb.d_B)
    return [
        perturb(s, 0.1, seed=n, include_bob=True),
        mixed,
        Strategy(mixed.alice, mixed.bob, psi / np.linalg.norm(psi)),
    ]
