#!/usr/bin/env python3
"""Print a table of classical vs. quantum success biases for CHSH(n).

Example:
    python3 scripts/bias_table.py --n-max 5
"""

import argparse
import sys
import time
from dataclasses import dataclass

from xorgame import TooLarge, chsh_game, classical_bias, quantum_bias


@dataclass(frozen=True)
class TableConfig:
    n_min: int = 2
    n_max: int = 5
    tol: float = 1e-8


def parse_args(argv) -> TableConfig:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-min", type=int, default=TableConfig.n_min)
    p.add_argument("--n-max", type=int, default=TableConfig.n_max)
    p.add_argument("--tol", type=float, default=TableConfig.tol)
    a = p.parse_args(argv)
    return TableConfig(a.n_min, a.n_max, a.tol)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    header = f"{'n':>3}  {'questions':>9}  {'classical':>10}  {'quantum':>12}  {'solve[s]':>8}"
    print(header)
    print("-" * len(header))
    for n in range(cfg.n_min, cfg.n_max + 1):
        g, _ = chsh_game(n)
        t0 = time.perf_counter()
        q = quantum_bias(g, cfg.tol)
        elapsed = time.perf_counter() - t0
        try:
            c = f"{classical_bias(g):10.6f}"
        except TooLarge:
            c = f"{'(skipped)':>10}"
        print(f"{n:>3}  {g.n_alice + g.n_bob:>9}  {c}  {q:12.9f}  {elapsed:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
