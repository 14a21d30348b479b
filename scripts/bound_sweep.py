#!/usr/bin/env python3
"""Sweep perturbed canonical CHSH(n) strategies and tabulate intertwining
residuals against their 12n²√ε / 17n²√ε bounds.

Writes the same CSV, with the same exit codes, as `xorgame sweep`, and
prints a per-n summary of the worst observed bound ratio (residual / bound).

Example:
    python3 scripts/bound_sweep.py --n-values 2,3,4 --out sweep.csv
"""

import argparse
import sys

from xorgame import intertwiner_sweep, serialize


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-values", default="2,3,4")
    p.add_argument("--thetas", default="0,0.01,0.03,0.05,0.1")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", default=None)
    try:
        a = p.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, which here means a failed bound
        return 1 if exc.code else 0
    lines = [serialize.SWEEP_HEADER]
    worst = {}
    all_hold = True
    try:
        grid = [
            [conv(tok) for tok in text.split(",") if tok]
            for text, conv in ((a.n_values, int), (a.thetas, float), (a.seeds, int))
        ]
        for n, theta, seed, rep in intertwiner_sweep(*grid):
            lines.append(serialize.sweep_row(n, theta, seed, rep))
            all_hold = all_hold and rep.bounds_hold
            if rep.epsilon > 0:
                ratio = max(max(rep.alice_residuals) / rep.alice_bound,
                            max(rep.bob_residuals) / rep.bob_bound)
                worst[n] = max(worst.get(n, 0.0), ratio)
    except ValueError as exc:
        sys.stderr.write(f"bound_sweep: error: {exc}\n")
        return 1
    if a.out:
        with open(a.out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    for n in sorted(worst):
        sys.stderr.write(
            f"n={n}: worst residual/bound ratio {worst[n]:.4f} "
            f"(bounds are worst-case; small ratios are expected)\n"
        )
    return 0 if all_hold else 2


if __name__ == "__main__":
    sys.exit(main())
