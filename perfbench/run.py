"""xorgame benchmark: one command, three workloads, correctness-checked.

    python3 perfbench/run.py --workload {solve,certify,pipeline} --seed N \
        --seconds S --trace {0,1}

--seconds defaults to run_seconds in BENCHMARK.json.  Run from the
repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it give the same figures with their
sample counts, the failed checks and the host fingerprint.  The full result,
with per-task failures and (traced) the spans, is written to
.perfbench_out/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
from hostinfo import cpu_ticks, fingerprint, steal_frac, thread_env

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solve", "certify", "pipeline")
# Set-up is timed once in this process and once in each of these fresh
# interpreters; setup_s is the median of all of them.
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def setup(workload: str, seed: int, workdir: str):
    """Import xorgame, build the workload's inputs and warm up; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import xorgame
    import workloads

    lib = Path(xorgame.__file__).resolve()
    if ROOT / "src" not in lib.parents:
        raise RuntimeError(f"xorgame imported from {lib}, not from {ROOT / 'src'}")
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warmup()
    return time.perf_counter() - t0, wl


def _child_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def code_hash() -> str:
    """Digest of the library and benchmark sources: exact counts are keyed on it."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xorgame").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_drift(key: str, counts: dict) -> list[str]:
    """Compare this run's exact counts with an earlier run of the same code, host and seed."""
    path = OUT_DIR / "counts.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    exact = {k: counts.get(k) for k in harness.EXACT_COUNTS}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = exact
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [
        f"{k} = {exact[k]} differs from {earlier.get(k)} in an earlier run"
        for k in harness.EXACT_COUNTS
        if exact[k] != earlier.get(k)
    ]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        sys.stderr.write("perfbench: --seed must be >= 0\n")
        return 2
    if not (ROOT / "src" / "xorgame" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no xorgame sources under {ROOT / 'src'}\n")
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    env_before = thread_env(os.environ)
    # one client, no threads added: the sweep's pool stays at one worker
    os.environ.pop("XORGAME_THREADS", None)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            setup_s, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _bench(args, workdir, env_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir: str, env_before: dict) -> int:
    setup_main, wl = setup(args.workload, args.seed, workdir)
    setups = [setup_main] + [_child_setup(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
    setup_s = statistics.median(setups)

    host = fingerprint(env_before)
    ticks = cpu_ticks()
    res = harness.run_loop(wl, args.seconds, bool(args.trace))
    steal = steal_frac(ticks, cpu_ticks())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts = res.pass_counts[0]
    key = f"{args.workload}:seed{args.seed}:{code_hash()}:{host['numpy']}:{host['blas']['openblas_configuration']}"
    drift = res.count_drift + ledger_drift(key, counts)
    correct = not res.wrong and not drift

    if args.trace:
        values, span_sums = harness.per_layer(res)
        registry, details = harness.PER_LAYER, {"passes": res.passes}
    else:
        values, details = harness.end_to_end(res, setup_s, peak_rss_mb, len(wl.tasks))
        registry = harness.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in registry}

    settings = {
        "load": "closed loop, 1 client, 1 process; each task starts after the previous one",
        "threads_added": 0,
        "XORGAME_THREADS": "unset for the run (was "
        + repr(env_before.get("XORGAME_THREADS")) + ")",
        "blas_threads": "library default (no override)",
        "seconds": args.seconds,
        "stop_rule": "whole passes, another only while it is expected to end within --seconds",
        "tasks_per_pass": len(wl.tasks),
        "setup_samples_s": setups,
        "cpu_steal_frac": steal,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": res.attempted,
        "failed": len(res.failed),
        "metrics": metrics,
        "details": details,
        "exact_counts": {k: counts.get(k) for k in harness.EXACT_COUNTS},
        "count_drift": drift,
        "failures": [{"task": t, "checks": c} for t, c in res.failed],
        "wrong": [{"task": t, "checks": c} for t, c in res.wrong],
        "skipped_checks": res.skipped,
        "tracebacks": res.tracebacks,
        "task_latencies_s": list(zip(res.labels, res.latencies)),
        "settings": settings,
        "host": host,
        "code_hash": code_hash(),
    }
    if res.tracer is not None:
        result["layer_predictions"] = harness.LAYER_PREDICTIONS
        result["span_self_s_per_pass"] = span_sums
        result["spans"] = [s.to_dict() for s in res.tracer.spans]
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res.passes} attempted={res.attempted} failed={len(res.failed)} correct={correct}")
    for name, unit, _ in registry:
        print(f"  {name:40s} {_fmt(values[name]):>14s} {unit}")
    for k, v in details.items():
        print(f"  [{k}] {_fmt(v)}")
    for label, checks in res.failed:
        print(f"  FAILED {label}: {'; '.join(checks)}")
    for label, checks in res.skipped.items():
        print(f"  SKIPPED CHECK {label}: {'; '.join(checks)}")
    for line in drift:
        print(f"  COUNT DRIFT {line}")
    if res.tracer is not None:
        for layer, moves in harness.LAYER_PREDICTIONS.items():
            print(f"  {layer} should move: {moves}")
    print("  exact counts: " + json.dumps(result["exact_counts"]))
    print("  settings: " + json.dumps(settings))
    print("  host: " + json.dumps(host))
    print(f"  full result: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": len(res.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
