"""The README's code blocks run as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from xorgame import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


QUICK_START = [
    shlex.split(line)[1:]
    for line in _block("## Quick start (CLI)", "sh").splitlines()
    if line.startswith("xorgame ")
]


def test_quick_start_has_every_command_family():
    assert {argv[0] for argv in QUICK_START} == {
        "game", "solve", "relations", "strategy", "structure", "intertwiner", "sweep",
    }


def test_quick_start_runs(tmp_path, monkeypatch):
    # in order, in one directory: each step reads the files the earlier ones wrote
    monkeypatch.chdir(tmp_path)
    for argv in QUICK_START:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


def test_library_use_runs(capsys):
    code = _block("## Library use", "python")
    exec(compile(code, "README.md", "exec"), {})
    residual, residual_vs_bound = capsys.readouterr().out.splitlines()
    assert float(residual) == pytest.approx(0.0, abs=1e-9)
    worst, bound = map(float, residual_vs_bound.split())
    assert worst <= bound
