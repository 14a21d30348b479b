import csv
import importlib.util
from pathlib import Path

import pytest

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


def test_bound_sweep_writes_csv(tmp_path, capsys):
    bound_sweep = _load("bound_sweep")
    out = tmp_path / "sweep.csv"
    argv = ["--n-values", "2,3", "--thetas", "0,0.05", "--seeds", "0", "--out", str(out)]
    assert bound_sweep.main(argv) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(bound_sweep.COLUMNS)
    assert len(rows) == 1 + 2 * 2 * 1
    for n, theta, seed, eps, ares, abound, bres, bbound in rows[1:]:
        assert float(ares) <= float(abound) + 1e-12
        assert float(bres) <= float(bbound) + 1e-12
    assert "worst residual/bound ratio" in capsys.readouterr().err
