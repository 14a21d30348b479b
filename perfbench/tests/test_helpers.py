"""Tests for the benchmark's own helpers, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import benchstats  # noqa: E402
import harness  # noqa: E402
import hostinfo  # noqa: E402
from tracing import NullTracer, Span, Tracer, self_times  # noqa: E402

# ---------------------------------------------------------------- percentiles


def test_percentile_interpolates_linearly():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert benchstats.percentile(xs, 0) == 1.0
    assert benchstats.percentile(xs, 100) == 4.0
    assert benchstats.percentile(xs, 50) == pytest.approx(2.5)
    assert benchstats.percentile(xs, 25) == pytest.approx(1.75)
    assert benchstats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = benchstats.tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert benchstats.samples_beyond(n, p) >= benchstats.TAIL_MIN_BEYOND - 1e-9


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    assert benchstats.quartile_spread(vals) == pytest.approx((q3 - q1) / med)


# ---------------------------------------------------------------- spans


def _span(sid, parent, start, end, name="x"):
    return Span(sid, name, parent, 0, False, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),  # overlaps span 1: the union is [1, 4]
        _span(3, 0, 9.0, 12.0),  # runs past its parent: only [9, 10] counts
        _span(4, 1, 1.5, 2.5),  # grandchild: subtracted from span 1 only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_records_parent_task_and_attrs():
    tr = Tracer()
    tr.task = 7
    with tr.span("task.toy"):
        with tr.span("sdp.solve", n=3) as sp:
            sp.attrs["iterations"] = 5
    with tr.span("linalg.hermitian_eig", probe=True):
        pass
    outer, inner, probe = tr.spans
    assert inner.parent == outer.sid and outer.parent is None and probe.parent is None
    assert {s.task for s in tr.spans} == {7}
    assert inner.attrs == {"n": 3, "iterations": 5}
    assert probe.probe and not inner.probe
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_null_tracer_records_nothing():
    with NullTracer().span("sdp.solve", n=2) as sp:
        sp.attrs["iterations"] = 1


# ---------------------------------------------------------------- failure counting


class Toy:
    """Tasks whose kind decides the outcome: ok, fail (loud), wrong, raise,
    skip (a check not made), count_raise and check_raise (the benchmark's
    own code raises)."""

    name = "toy"

    def __init__(self, kinds):
        self.tasks = [SimpleNamespace(label=f"t{i}", kind=k) for i, k in enumerate(kinds)]
        self.calls = 0

    def run(self, task, tr):
        self.calls += 1
        with tr.span("games.build"):
            if task.kind == "raise":
                raise ValueError("boom")
        with tr.span("sdp.solve") as sp:
            sp.attrs["iterations"] = 4
        return task.kind

    def check(self, task, out, tr):
        if out == "check_raise":
            raise KeyError("outputs")
        failures = [f"{out} check"] if out in ("fail", "wrong") else []
        return SimpleNamespace(failures=failures, wrong=failures if out == "wrong" else [],
                               skipped=["not made"] if out == "skip" else [])

    def probe(self, task, out, tr):
        with tr.span("linalg.hermitian_eig", probe=True):
            pass

    def counts(self, task, out):
        if out == "count_raise":
            raise FileNotFoundError("rel3.json")
        return {"sdp.iterations": 4}


def test_failures_are_counted_never_dropped():
    wl = Toy(["ok", "fail", "wrong", "raise", "ok"])
    res = harness.run_loop(wl, seconds=0.0, trace=False)
    assert res.passes == 1 and res.attempted == 5
    assert [label for label, _ in res.failed] == ["t1", "t2", "t3"]
    assert [label for label, _ in res.wrong] == ["t2"]  # loud failures are not wrong answers
    assert any("ValueError: boom" in m for m in dict(res.failed)["t3"])
    values, details = harness.end_to_end(res, setup_s=1.0, peak_rss_mb=10.0, executions_per_pass=5)
    assert values["passed_frac"] == pytest.approx(2 / 5)
    assert details["failed_frac"] == pytest.approx(3 / 5)
    assert details["tasks"] == 5 and details["executions"] == 5


def test_exceptions_in_the_benchmarks_own_code_fail_the_task_not_the_run():
    wl = Toy(["count_raise", "check_raise", "skip", "ok"])
    res = harness.run_loop(wl, seconds=0.0, trace=True)
    failed = dict(res.failed)
    assert list(failed) == ["t0", "t1"] and res.wrong == []
    assert failed["t0"] == ["probe/counts raised: FileNotFoundError: rel3.json"]
    assert failed["t1"] == ["check raised: KeyError: 'outputs'"]
    assert res.skipped == {"t2": ["not made"]}  # skipped, not failed
    assert len(res.tracebacks) == 4  # each raise, in both the untraced and traced execution


def test_tail_is_taken_over_executions_at_a_percentile_fixed_by_the_pass():
    res = harness.RunResult(attempted=80, passes=2)
    # one slow task among 39 fast ones, each executed twice
    for _ in range(2):
        res.labels += ["slow"] + [f"fast{i}" for i in range(39)]
        res.latencies += [10.0] + [1.0 + i / 100 for i in range(39)]
    values, details = harness.end_to_end(res, setup_s=1.0, peak_rss_mb=1.0, executions_per_pass=40)
    # 80 executions would allow p75 only, as would one pass of 40
    assert details["tail_percentile"] == 75.0
    assert values["task_tail_s"] == pytest.approx(benchstats.percentile(res.latencies, 75.0))
    assert values["task_tail_s"] > values["task_p50_s"]
    # a slow host makes fewer passes: the percentile stays where one pass puts it
    _, details = harness.end_to_end(res, setup_s=1.0, peak_rss_mb=1.0, executions_per_pass=20)
    assert details["tail_percentile"] == 50.0 and details["tail_executions_beyond"] == 40


def test_a_pipeline_step_that_exits_non_zero_fails_the_task(monkeypatch, tmp_path):
    import workloads

    def fake_main(argv):  # writes no artifacts; relations extract fails
        print(json.dumps({"outputs": {"iterations": 5}}))
        return 3 if argv[:2] == ["relations", "extract"] else 0

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    wl = workloads.Pipeline(seed=0, workdir=str(tmp_path))
    for trace in (False, True):
        res = harness.run_loop(wl, seconds=0.0, trace=trace)
        (label, checks), = res.failed
        assert any(c.startswith("probe/counts raised: FileNotFoundError") for c in checks)
        assert "`xorgame relations extract` exited 3" in checks
        assert "artifact rel3.json missing" in checks
        assert "`xorgame relations extract` exited 3" in dict(res.wrong)[label]
    assert list(tmp_path.iterdir()) == []  # every execution's artifacts were removed


def test_traced_run_executes_each_task_twice_and_counts_it_once():
    wl = Toy(["ok", "fail"])
    res = harness.run_loop(wl, seconds=0.0, trace=True)
    assert wl.calls == 4
    assert res.attempted == 2 and len(res.failed) == 1 and len(res.latencies) == 2
    names = [s.name for s in res.tracer.spans]
    assert names.count("task.toy") == 2 and names.count("linalg.hermitian_eig") == 2
    values, sums = harness.per_layer(res)
    assert set(values) == {name for name, _, _ in harness.PER_LAYER}
    assert values["sdp.iterations"] == 8
    assert values["trace.spans"] == len(res.tracer.spans)
    assert values["sdp.eig_share_est"] >= 0.0
    assert "games.build_s" in sums


def test_count_drift_between_passes_is_flagged():
    res = harness.RunResult(pass_counts=[{"sdp.iterations": 4}, {"sdp.iterations": 4}])
    assert res.count_drift == []
    res.pass_counts.append({"sdp.iterations": 5})
    assert res.count_drift == ["pass 3: sdp.iterations = 5 != 4 (pass 1)"]


# ---------------------------------------------------------------- fingerprint


def test_blas_entry_reads_show_config_dicts():
    config = {
        "Build Dependencies": {
            "blas": {
                "name": "scipy-openblas",
                "version": "0.3.31",
                "openblas configuration": "OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell MAX_THREADS=64",
            }
        }
    }
    assert hostinfo.blas_entry(config) == {
        "name": "scipy-openblas",
        "version": "0.3.31",
        "openblas_configuration": "OpenBLAS 0.3.31 DYNAMIC_ARCH Haswell MAX_THREADS=64",
    }


@pytest.mark.parametrize("config", [None, {}, {"Build Dependencies": {}}, {"Build Dependencies": {"blas": "x"}}])
def test_blas_entry_tolerates_missing_fields(config):
    assert hostinfo.blas_entry(config) == {
        "name": "unknown", "version": "unknown", "openblas_configuration": "unknown",
    }


def test_thread_env_keeps_only_thread_settings():
    env = {"OPENBLAS_CORETYPE": "Haswell", "OMP_NUM_THREADS": "1", "XORGAME_THREADS": "2",
           "PATH": "/bin", "OMP_PROC_BIND": "true"}
    assert hostinfo.thread_env(env) == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell", "XORGAME_THREADS": "2",
    }


def test_steal_frac_reads_the_cpu_line_of_proc_stat(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  100 0 10 880 0 0 0 10 0 0\ncpu0 50 0 5 440 0 0 0 5 0 0\n")
    before = hostinfo.cpu_ticks(str(stat))
    assert before == {"user": 100, "nice": 0, "system": 10, "idle": 880, "iowait": 0,
                      "irq": 0, "softirq": 0, "steal": 10}
    after = dict(before, user=150, idle=920, steal=20)
    assert hostinfo.steal_frac(before, after) == pytest.approx(10 / 100)
    assert hostinfo.steal_frac(before, before) is None
    assert hostinfo.steal_frac(None, after) is None
    assert hostinfo.cpu_ticks(str(tmp_path / "missing")) is None


# ---------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_metric_registry():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(harness.PER_LAYER)
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == ["solve", "certify", "pipeline"]
