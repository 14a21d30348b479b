import csv
import dataclasses
import importlib.util
from pathlib import Path

import pytest

import xorgame.structure as structure
from xorgame import cli, serialize

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bias_table_prints_every_n(capsys):
    bias_table = _load("bias_table")
    assert bias_table.main(["--n-min", "2", "--n-max", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [2, 3, 4, 5]
    for r in rows:
        # CHSH(n) needs 2^n classical enumerations: CHSH(5) is no longer skipped
        assert float(r[2]) == pytest.approx(0.5, abs=1e-6)
        assert float(r[3]) == pytest.approx(2**-0.5, abs=1e-8)


def test_bias_table_marks_refused_enumeration(capsys, monkeypatch):
    bias_table = _load("bias_table")

    def refuse(g):
        raise bias_table.TooLarge("guard")

    monkeypatch.setattr(bias_table, "classical_bias", refuse)
    assert bias_table.main(["--n-min", "2", "--n-max", "2"]) == 0
    assert "(skipped)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--n-min", "1"], ["--tol", "0.5"], ["--bogus"]],
                         ids=["n1", "bad-tol", "unknown-flag"])
def test_bias_table_input_errors_exit_1(capsys, argv):
    bias_table = _load("bias_table")
    assert bias_table.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_bound_sweep_writes_csv(tmp_path, capsys):
    bound_sweep = _load("bound_sweep")
    out = tmp_path / "sweep.csv"
    argv = ["--n-values", "2,3", "--thetas", "0,0.05", "--seeds", "0", "--out", str(out)]
    assert bound_sweep.main(argv) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(serialize.SWEEP_COLUMNS)
    assert len(rows) == 1 + 2 * 2 * 1
    for n, theta, seed, eps, ares, abound, bres, bbound in rows[1:]:
        assert float(ares) <= float(abound) + 1e-12
        assert float(bres) <= float(bbound) + 1e-12
    assert "worst residual/bound ratio" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [[], ["--n-values", "2,3", "--thetas", "0,0.05", "--seeds", "3,1"]],
    ids=["default-grid", "small-grid"],
)
def test_bound_sweep_writes_the_cli_sweep_bytes(tmp_path, capsys, argv):
    bound_sweep = _load("bound_sweep")
    assert cli.main(["sweep", *argv]) == 0
    cli_csv = capsys.readouterr().out
    assert bound_sweep.main(argv) == 0
    assert capsys.readouterr().out == cli_csv
    out = tmp_path / "sweep.csv"
    assert bound_sweep.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == cli_csv.encode()


@pytest.mark.parametrize(
    "argv",
    [["--thetas=-0.1"], ["--n-values", ""], ["--n-values", "1"], ["--seeds", "x"], ["--bogus"]],
    ids=["negative-theta", "empty-n-values", "n1", "unparsable", "unknown-flag"],
)
def test_bound_sweep_input_errors_exit_1_like_the_cli(tmp_path, capsys, argv):
    bound_sweep = _load("bound_sweep")
    out = tmp_path / "sweep.csv"
    assert bound_sweep.main([*argv, "--out", str(out)]) == 1
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_bound_sweep_failed_bound_exits_2_like_the_cli(capsys, monkeypatch):
    # valid strategies meet the bounds, so mark the reports as failing
    # directly, in the report function the sweep engine calls
    real = structure.intertwiner_report

    def failing(*a, **k):
        return dataclasses.replace(real(*a, **k), bounds_hold=False)

    monkeypatch.setattr(structure, "intertwiner_report", failing)
    bound_sweep = _load("bound_sweep")
    argv = ["--n-values", "2", "--thetas", "0.05", "--seeds", "0"]
    assert bound_sweep.main(argv) == 2
    script_csv = capsys.readouterr().out
    assert cli.main(["sweep", *argv]) == 2
    assert capsys.readouterr().out == script_csv
    assert len(script_csv.splitlines()) == 2
