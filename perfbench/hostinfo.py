"""Host fingerprint recorded beside every result.

The CHSH(2) primal value moves in its 11th-12th digit with the OpenBLAS
kernel, so a number means little without the numeric environment below it.
"""
from __future__ import annotations

import os
import platform
import sys

THREAD_ENV_PREFIXES = ("OPENBLAS_",)
THREAD_ENV_NAMES = ("OMP_NUM_THREADS", "XORGAME_THREADS")


def blas_entry(config) -> dict:
    """The BLAS entry of np.show_config(mode="dicts"): name, version, configuration."""
    blas = {}
    if isinstance(config, dict):
        deps = config.get("Build Dependencies")
        if isinstance(deps, dict) and isinstance(deps.get("blas"), dict):
            blas = deps["blas"]
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "openblas_configuration": blas.get("openblas configuration", "unknown"),
    }


def thread_env(environ) -> dict:
    """OPENBLAS_*, OMP_NUM_THREADS and XORGAME_THREADS values, sorted by name."""
    return {
        k: environ[k]
        for k in sorted(environ)
        if k.startswith(THREAD_ENV_PREFIXES) or k in THREAD_ENV_NAMES
    }


def cpu_ticks(stat_path: str = "/proc/stat") -> dict | None:
    """The aggregate cpu line of /proc/stat in clock ticks; None where there is none."""
    try:
        with open(stat_path) as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    if not fields or fields[0] != "cpu" or len(fields) < 1 + len(names):
        return None
    return dict(zip(names, map(int, fields[1:1 + len(names)])))


def steal_frac(before: dict | None, after: dict | None) -> float | None:
    """Share of the machine's CPU time between two cpu_ticks() readings that the
    hypervisor gave to other guests.  On a shared virtual machine it explains
    much of the run-to-run spread, so every result records it."""
    if before is None or after is None:
        return None
    total = sum(after.values()) - sum(before.values())
    return (after["steal"] - before["steal"]) / total if total > 0 else None


def fingerprint(environ=None) -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        config = None
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_entry(config),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "thread_env": thread_env(os.environ if environ is None else environ),
    }
