#!/usr/bin/env python3
"""Sweep perturbed canonical CHSH(n) strategies and tabulate intertwining
residuals against their 12n²√ε / 17n²√ε bounds.

Runs `xorgame sweep` with the same flags, so it writes the same CSV with
the same exit codes and error lines, and then prints a per-n summary of
the worst observed bound ratio (residual / bound), read off the CSV.

Example:
    python3 scripts/bound_sweep.py --n-values 2,3,4 --out sweep.csv
"""

import contextlib
import csv
import io
import sys

from xorgame import cli


def main(argv=None) -> int:
    argv = ["sweep", *(sys.argv[1:] if argv is None else argv)]
    try:
        out = cli.build_parser().parse_args(argv).out
    except SystemExit as exc:  # --help, or a usage error the parser reported
        return exc.code
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = cli.main(argv)
    text = captured.getvalue()
    sys.stdout.write(text)
    if code == cli.EXIT_USAGE:
        return code
    if out:
        with open(out) as fh:
            text = fh.read()
    worst = {}
    for r in csv.DictReader(io.StringIO(text)):
        if float(r["epsilon"]) > 0:
            ratio = max(float(r["max_alice_residual"]) / float(r["alice_bound"]),
                        float(r["max_bob_residual"]) / float(r["bob_bound"]))
            worst[r["n"]] = max(worst.get(r["n"], 0.0), ratio)
    for n in sorted(worst, key=int):
        sys.stderr.write(
            f"n={n}: worst residual/bound ratio {worst[n]:.4f} "
            f"(bounds are worst-case; small ratios are expected)\n"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
