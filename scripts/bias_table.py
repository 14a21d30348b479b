#!/usr/bin/env python3
"""Print a table of classical vs. quantum success biases for CHSH(n).

Example:
    python3 scripts/bias_table.py --n-max 5
"""

import argparse
import sys
import time

from xorgame import TooLarge, chsh_game, classical_bias, quantum_bias


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-8)
    try:
        a = p.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2; bad input exits 1, as in bound_sweep.py
        return 1 if exc.code else 0
    header = f"{'n':>3}  {'questions':>9}  {'classical':>10}  {'quantum':>12}  {'solve[s]':>8}"
    print(header)
    print("-" * len(header))
    try:
        for n in range(a.n_min, a.n_max + 1):
            g, _ = chsh_game(n)
            t0 = time.perf_counter()
            q = quantum_bias(g, a.tol)
            elapsed = time.perf_counter() - t0
            try:
                c = f"{classical_bias(g):10.6f}"
            except TooLarge:
                c = f"{'(skipped)':>10}"
            print(f"{n:>3}  {g.n_alice + g.n_bob:>9}  {c}  {q:12.9f}  {elapsed:8.2f}")
    except ValueError as exc:
        sys.stderr.write(f"bias_table: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
