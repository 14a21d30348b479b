#!/usr/bin/env python3
"""Sweep perturbed canonical CHSH(n) strategies and tabulate intertwining
residuals against their 12n²√ε / 17n²√ε bounds.

Writes the same CSV the `xorgame sweep` command produces and prints a
per-n summary of the worst observed bound ratio (residual / bound).

Example:
    python3 scripts/bound_sweep.py --n-values 2,3,4 --out sweep.csv
"""

import argparse
import contextlib
import csv
import sys
from dataclasses import dataclass

from xorgame import canonical_chshn, chsh_game, intertwiner_report, perturb


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = (2, 3, 4)
    thetas: tuple[float, ...] = (0.0, 0.01, 0.03, 0.05, 0.1)
    seeds: tuple[int, ...] = (0, 1, 2)
    out: str | None = None


COLUMNS = (
    "n",
    "theta",
    "seed",
    "epsilon",
    "max_alice_residual",
    "alice_bound",
    "max_bob_residual",
    "bob_bound",
)


def parse_args(argv) -> SweepConfig:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n-values", default="2,3,4")
    p.add_argument("--thetas", default="0,0.01,0.03,0.05,0.1")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", default=None)
    a = p.parse_args(argv)
    return SweepConfig(
        n_values=tuple(int(x) for x in a.n_values.split(",") if x),
        thetas=tuple(float(x) for x in a.thetas.split(",") if x),
        seeds=tuple(int(x) for x in a.seeds.split(",") if x),
        out=a.out,
    )


def run(cfg: SweepConfig):
    rows = []
    worst = {}
    for n in cfg.n_values:
        g, _ = chsh_game(n)
        base = canonical_chshn(n)
        for theta in cfg.thetas:
            for seed in cfg.seeds:
                s = perturb(base, theta=theta, seed=seed)
                rep = intertwiner_report(g, s, n)
                ra = max(rep.alice_residuals)
                rb = max(rep.bob_residuals)
                rows.append((n, theta, seed, rep.epsilon, ra, rep.alice_bound, rb, rep.bob_bound))
                if rep.epsilon > 0:
                    ratio = max(ra / rep.alice_bound, rb / rep.bob_bound)
                    worst[n] = max(worst.get(n, 0.0), ratio)
    return rows, worst


def main(argv=None) -> int:
    cfg = parse_args(argv)
    rows, worst = run(cfg)
    out = open(cfg.out, "w", newline="") if cfg.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([f"{x:.12g}" for x in row])
    for n in sorted(worst):
        sys.stderr.write(
            f"n={n}: worst residual/bound ratio {worst[n]:.4f} "
            f"(bounds are worst-case; small ratios are expected)\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
