"""The paper's chain definitions, one product and one sign at a time.

The library computes all chain products at once (`structure._chain_products`)
and reads the insertion signs from one sign vector (`structure._reference`);
these direct definitions are the oracles the tests compare them with.
"""
import itertools
from dataclasses import dataclass

import numpy as np

from xorgame.linalg import DimensionMismatch
from xorgame.strategies import Observable
from xorgame.structure import IndexOutOfRange


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
