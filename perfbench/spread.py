"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve --seeds 1-10 [--seconds S] [--trace 0]

Runs are sequential (one benchmark process at a time).  For every metric it
prints the median, the quartiles as statistics.quantiles(n=4) gives them, and
the spread (Q3 - Q1) / median next to a third of the metric's bound from
BENCHMARK.json.  The per-run last lines, with the code hash of the run, are
appended to .perfbench_out/spread-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchstats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        result = ROOT / ".perfbench_out" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        code_hash = json.loads(result.read_text())["code_hash"]
        runs.append(last)
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, "code_hash": code_hash, **last}) + "\n")
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, code {code_hash}, "
              f"correct={last['correct']}, failed={last['failed']}/{last['attempted']}", flush=True)
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = quartile_spread(vals)
        else:
            q1 = q3 = spread = float("nan")
        bound = bounds.get(name)
        limit = f"  bound/3 {bound / 3:.4f}" if bound is not None else ""
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
