"""Closed-loop load generator and metric assembly.

One client in one process: each task starts only after the previous one and
its checks have finished.  A run executes whole passes over the workload's
task list, and starts another pass only while that pass is expected to end
within --seconds, so every run covers the same task mix.

The host this was built on runs in speed phases of a few seconds that differ
by up to 1.8x.  So a task's latency is the median of its executions in the
run, and throughput and the median are taken over tasks.  Repeated passes
then average the phases out instead of passing them on.  The tail is taken
over executions, so that it reaches past the median on workloads with few
distinct tasks.
"""
from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field

from benchstats import percentile, samples_beyond, tail_percentile
from tracing import NullTracer, Tracer, self_times

# name, unit, better -- must match BENCHMARK.json (a test checks this)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_s", "s", "lower"),
    ("task_tail_s", "s", "lower"),
    ("passed_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_CLI_STEPS = (
    "game_chsh", "solve", "relations_extract", "strategy_canonical", "relations_residual",
    "structure_verify", "strategy_perturb", "intertwiner_report", "strategy_simulate",
    "sweep", "strategy_bias",
)

PER_LAYER = (
    ("games.build_s", "s", "lower"),
    ("games.classical_bias_s", "s", "lower"),
    ("linalg.hermitian_eig_s", "s", "lower"),
    ("linalg.schmidt_s", "s", "lower"),
    ("sdp.solve_s", "s", "lower"),
    ("sdp.iterations", "count", "lower"),
    ("sdp.iter_s", "s", "lower"),
    ("sdp.eig_share_est", "ratio", "lower"),
    ("sdp.max_iterations", "count", "lower"),
    ("sdp.verify_dual_feasible_s", "s", "lower"),
    *((f"sdp.solve_s.n{n}", "s", "lower") for n in range(2, 6)),
    *((f"sdp.iterations.n{n}", "count", "lower") for n in range(2, 6)),
    ("relations.closed_form_s", "s", "lower"),
    ("relations.extract_s", "s", "lower"),
    ("relations.pairs", "count", "lower"),
    ("relations.check_identity_s", "s", "lower"),
    ("strategies.canonical_s", "s", "lower"),
    ("strategies.perturb_s", "s", "lower"),
    ("strategies.bias_s", "s", "lower"),
    ("strategies.simulate_s", "s", "lower"),
    ("strategies.simulate_rounds_per_s", "1/s", "higher"),
    ("structure.intertwiner_report_s", "s", "lower"),
    ("structure.verify_optimal_form_s", "s", "lower"),
    ("structure.anticommutation_residual_s", "s", "lower"),
    ("structure.t_bytes", "B", "lower"),
    *((f"structure.intertwiner_report_s.n{n}", "s", "lower") for n in range(2, 9)),
    ("serialize.write_s", "s", "lower"),
    ("serialize.read_s", "s", "lower"),
    ("serialize.bytes_written", "B", "lower"),
    ("serialize.bytes_read", "B", "lower"),
    ("serialize.write_mb_per_s", "MB/s", "higher"),
    *((f"cli.{step}_s", "s", "lower") for step in _CLI_STEPS),
    ("bench.self_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

# Which end-to-end metric each layer's figures should move, written down
# before any change is measured against them.
LAYER_PREDICTIONS = {
    "games": "solve tasks_per_s, slightly",
    "linalg": "solve tasks_per_s and task_p50_s most; certify little",
    "sdp": "solve tasks_per_s, task_tail_s and passed_frac, and the pipeline's cli.solve_s "
           "share; no change on certify",
    "relations": "certify tasks_per_s",
    "strategies": "certify tasks_per_s and pipeline task_p50_s",
    "structure": "certify task_tail_s and peak_rss_mb; no change on solve",
    "serialize": "pipeline tasks_per_s; no change on solve or certify",
    "cli": "pipeline task_p50_s",
}

# Per-pass counts that must repeat exactly between passes and runs.
EXACT_COUNTS = ("sdp.iterations", "relations.pairs", "structure.t_bytes")


@dataclass
class RunResult:
    passes: int = 0
    attempted: int = 0
    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    failed: list[tuple[str, list[str]]] = field(default_factory=list)
    wrong: list[tuple[str, list[str]]] = field(default_factory=list)
    skipped: dict[str, list[str]] = field(default_factory=dict)
    tracebacks: list[str] = field(default_factory=list)
    pass_counts: list[dict] = field(default_factory=list)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    tracer: Tracer | None = None
    wall_s: float = 0.0

    @property
    def count_drift(self) -> list[str]:
        first = self.pass_counts[0] if self.pass_counts else {}
        return [
            f"pass {k + 1}: {name} = {counts.get(name)} != {first.get(name)} (pass 1)"
            for k, counts in enumerate(self.pass_counts[1:], start=1)
            for name in sorted(set(first) | set(counts))
            if counts.get(name) != first.get(name)
        ]


def _execute(wl, task, tr):
    """Run one task; returns (output or None, latency, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(task, tr)
        err = None
    except Exception:  # a raising task is counted as failed, never dropped
        out, err = None, traceback.format_exc()
    return out, time.perf_counter() - t0, err


def _last_line(err: str) -> str:
    return err.strip().splitlines()[-1]


def _finish(wl, task, out, err, tr, traced: bool):
    """Probe (traced only), count and check one execution.

    Returns (failures, wrong, skipped checks, counts, tracebacks).  An
    exception in the benchmark's own probe, count or check of an execution
    fails that task; it never ends the run.
    """
    if err is not None:  # loud: counted as failed, not as a wrong answer
        return [f"raised: {_last_line(err)}"], [], [], {}, []
    failures, tracebacks, counts = [], [], {}
    try:
        if traced:
            wl.probe(task, out, tr)
        counts = wl.counts(task, out)
    except Exception:
        tracebacks.append(traceback.format_exc())
        failures.append(f"probe/counts raised: {_last_line(tracebacks[-1])}")
    try:  # after probe and counts: a check may remove the task's artifacts
        verdict = wl.check(task, out, tr if traced else NullTracer())
    except Exception:
        tracebacks.append(traceback.format_exc())
        failures.append(f"check raised: {_last_line(tracebacks[-1])}")
        return failures, [], [], counts, tracebacks
    return failures + verdict.failures, verdict.wrong, verdict.skipped, counts, tracebacks


def run_loop(wl, seconds: float, trace: bool) -> RunResult:
    """Whole passes while the next one is expected to end within `seconds` (at least one).

    With trace on, every task runs twice, untraced and traced, alternating
    which goes first; the difference of their wall times is the tracing
    overhead.  End-to-end figures come from untraced runs only.
    """
    res = RunResult(tracer=Tracer() if trace else None)
    null = NullTracer()
    start = time.perf_counter()
    k = 0
    while True:
        pass_counts: dict = {}
        for task in wl.tasks:
            res.attempted += 1
            failures, wrong = [], []
            counts = {}
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                tr = res.tracer if traced else null
                if traced:
                    tr.task = k
                    with tr.span("task." + wl.name, label=task.label):
                        out, lat, err = _execute(wl, task, tr)
                    res.traced_s += lat
                else:
                    out, lat, err = _execute(wl, task, tr)
                    res.untraced_s += lat
                    res.latencies.append(lat)
                    res.labels.append(task.label)
                if err is not None:
                    res.tracebacks.append(err)
                f, w, skipped, counts, tbs = _finish(wl, task, out, err, tr, traced)
                res.tracebacks += tbs
                failures += [m for m in f if m not in failures]
                wrong += [m for m in w if m not in wrong]
                if skipped:
                    res.skipped[task.label] = skipped
            for name, value in counts.items():
                pass_counts[name] = pass_counts.get(name, 0) + value
            if failures:
                res.failed.append((task.label, failures))
            if wrong:
                res.wrong.append((task.label, wrong))
            k += 1
        res.pass_counts.append(pass_counts)
        res.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / res.passes > seconds:
            break
    res.wall_s = time.perf_counter() - start
    return res


def task_medians(res: RunResult) -> dict[str, float]:
    """Each task's median latency over its executions in the run."""
    by_label: dict[str, list[float]] = {}
    for label, t in zip(res.labels, res.latencies):
        by_label.setdefault(label, []).append(t)
    return {label: statistics.median(ts) for label, ts in by_label.items()}


def end_to_end(res: RunResult, setup_s: float, peak_rss_mb: float,
               executions_per_pass: int) -> tuple[dict, dict]:
    """End-to-end metric values, plus the sample details printed beside them.

    The tail is taken over all executions.  Its percentile is chosen from
    the executions of one pass, not of the run, so that a run's speed, which
    sets how many passes it makes, does not change which percentile is
    reported.
    """
    per_task = list(task_medians(res).values())
    tail_p = tail_percentile(executions_per_pass)
    values = {
        "setup_s": setup_s,
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_p50_s": percentile(per_task, 50.0),
        "task_tail_s": percentile(res.latencies, tail_p),
        "passed_frac": 1.0 - len(res.failed) / res.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "tasks": len(per_task),
        "executions": len(res.latencies),
        "passes": res.passes,
        "tail_percentile": tail_p,
        "tail_executions_beyond": samples_beyond(len(res.latencies), tail_p),
        "failed_frac": len(res.failed) / res.attempted,
        "timed_s": res.untraced_s,
        "wall_s": res.wall_s,
    }
    return values, details


def per_layer(res: RunResult) -> dict:
    """Per-layer values from the traced run, per pass (every name, zero if unreached),
    and the per-pass sums of every span name and per-n breakdown for the result file."""
    passes = res.passes
    spans = res.tracer.spans
    own = self_times(spans)
    sums: dict[str, float] = {}

    def add(name, value):
        sums[name] = sums.get(name, 0.0) + value

    by_task: dict[int, dict] = {}
    for s in spans:
        t = own[s.sid]
        if s.name.startswith("task."):
            add("bench.self_s", t)
            continue
        add(s.name + "_s", t)
        if "n" in s.attrs:
            add(f"{s.name}_s.n{s.attrs['n']}", t)
        if s.name == "serialize.write":
            add("serialize.bytes_written", s.attrs["bytes"])
        elif s.name == "serialize.read":
            add("serialize.bytes_read", s.attrs["bytes"])
        elif s.name == "strategies.simulate":
            add("strategies.simulate_rounds", s.attrs["rounds"])
        elif s.name in ("sdp.solve", "linalg.hermitian_eig"):
            rec = by_task.setdefault(s.task, {"solve": 0.0, "it": 0, "eig": 0.0})
            if s.name == "sdp.solve":
                rec["solve"] += s.duration
                rec["it"] += s.attrs["iterations"]
            else:
                rec["eig"] += s.duration

    values = {name: sums.get(name, 0.0) / passes for name, _, _ in PER_LAYER}
    counts = res.pass_counts[0]
    for name in ("sdp.iterations", "sdp.max_iterations", "relations.pairs", "structure.t_bytes"):
        values[name] = counts.get(name, 0)
    for n in range(2, 6):
        values[f"sdp.iterations.n{n}"] = counts.get(f"sdp.iterations.n{n}", 0)
    if values["sdp.iterations"]:
        values["sdp.iter_s"] = values["sdp.solve_s"] / values["sdp.iterations"]
    solve_total = sum(r["solve"] for r in by_task.values())
    if solve_total:
        # two eigendecompositions per iteration, each timed on the final slack
        values["sdp.eig_share_est"] = sum(2 * r["it"] * r["eig"] for r in by_task.values()) / solve_total
    if values["strategies.simulate_s"]:
        values["strategies.simulate_rounds_per_s"] = (
            sums["strategies.simulate_rounds"] / passes / values["strategies.simulate_s"]
        )
    if values["serialize.write_s"]:
        values["serialize.write_mb_per_s"] = values["serialize.bytes_written"] / 1e6 / values["serialize.write_s"]
    values["trace.untraced_pass_s"] = res.untraced_s / passes
    values["trace.traced_pass_s"] = res.traced_s / passes
    values["trace.overhead_s"] = (res.traced_s - res.untraced_s) / passes
    values["trace.overhead_frac"] = (res.traced_s - res.untraced_s) / res.untraced_s
    values["trace.spans"] = len(spans) / passes
    return values, {name: total / passes for name, total in sorted(sums.items())}
