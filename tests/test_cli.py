import contextlib
import csv
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import xorgame.cli as cli
from xorgame import serialize as sz
from xorgame.games import chsh_game, new_game, symmetrize
from xorgame.sdp import solve
from xorgame.strategies import Strategy
from xorgame.structure import IntertwinerReport, StructureReport, verify_optimal_form

RT2 = np.sqrt(2.0)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestGameCommands:
    def test_chsh_to_stdout(self, capsys):
        code, doc, _ = run_json(capsys, "game", "chsh", "--n", "2")
        assert code == 0
        assert doc["n_alice"] == 2 and doc["n_bob"] == 2
        assert doc["matrix"] == [0.25, 0.25, 0.25, -0.25]

    def test_chsh_check_round_trip(self, capsys, tmp_path):
        p = str(tmp_path / "g.json")
        code, doc, _ = run_json(capsys, "game", "chsh", "--n", "3", "--out", p)
        assert code == 0
        assert doc["outputs"]["written"] == p
        code, rep, _ = run_json(capsys, "game", "check", p)
        assert code == 0
        assert rep["outputs"]["valid"] is True
        assert rep["outputs"]["abs_sum"] == 1.0
        assert p in rep["inputs"]

    def test_check_rejects_unnormalized(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n_alice": 1, "n_bob": 1, "matrix": [0.5]}))
        code, rep, _ = run_json(capsys, "game", "check", str(p))
        assert code == 2
        assert rep["outputs"]["valid"] is False
        assert rep["outputs"]["error"].startswith("sum of |entries|")

    def test_check_missing_file_is_usage_error(self, capsys):
        code, out, err = run(capsys, "game", "check", "does-not-exist.json")
        assert code == 1

    def test_bad_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "game", "chsh", "--n", "1")
        assert code == 1
        assert "error" in err


class TestSolveCommand:
    def test_solve_chsh2(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        code, rep, _ = run_json(capsys, "solve", g)
        assert code == 0
        out = rep["outputs"]
        assert out["converged"] is True
        assert abs(out["primal_value"] - 1 / RT2) < 1e-6
        assert out["gap"] <= 1e-8
        # 12 significant digits of exactly the solver's result.  The digits
        # themselves depend on the host's BLAS build (they agree across hosts
        # only within the certified gap), so they are computed here, not pinned.
        sol = solve(symmetrize(sz.game_from_dict(sz.read_json(g))))
        assert out["primal_value"] == sz.jfloat(sol.primal_value)
        assert out["dual_value"] == sz.jfloat(sol.dual_value)
        assert out["gap"] == sz.jfloat(sol.gap)
        # byte-identical between runs on one host and BLAS build
        _, rep2, _ = run_json(capsys, "solve", g)
        rep.pop("wall_time")
        rep2.pop("wall_time")
        assert rep == rep2
        # across hosts: primal <= optimum <= dual, up to the 12-digit rounding
        assert out["primal_value"] <= 1 / RT2 + 1e-12
        assert out["dual_value"] >= 1 / RT2 - 1e-12

    def test_dump_files_feed_downstream(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        z = str(tmp_path / "z.json")
        y = str(tmp_path / "y.json")
        sol = str(tmp_path / "sol.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        code, _, _ = run(
            capsys, "solve", g, "--dump-z", z, "--dump-y", y, "--out", sol
        )
        assert code == 0
        soldoc = sz.read_json(sol)
        assert set(soldoc) == {"primal_value", "dual_value", "gap", "y", "z"}
        # y feeds relations extract
        code, rel, _ = run_json(capsys, "relations", "extract", g, y)
        assert code == 0
        assert len(rel["pairs"]) >= 1
        # z feeds strategy tsirelson
        st = str(tmp_path / "s.json")
        code, _, _ = run(
            capsys, "strategy", "tsirelson", "--z", z, "--n", "2", "--m", "2",
            "--out", st,
        )
        assert code == 0
        code, rep, _ = run_json(capsys, "strategy", "bias", g, st)
        assert code == 0
        assert abs(rep["outputs"]["bias"] - 1 / RT2) < 1e-6

    def test_bad_tol_is_usage_error(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        code, _, err = run(capsys, "solve", g, "--tol", "0.5")
        assert code == 1

    def test_nonconvergence_exits_2(self, capsys, tmp_path, monkeypatch):
        import xorgame.sdp as sdp_mod

        g = str(tmp_path / "g.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        monkeypatch.setattr(sdp_mod, "MAX_ITERATIONS", 3)
        code, rep, _ = run_json(capsys, "solve", g)
        assert code == 2
        assert rep["outputs"]["converged"] is False
        assert rep["outputs"]["iterations"] == 3


class TestRelationsCommands:
    def test_chshn_forms(self, capsys):
        code, doc, _ = run_json(capsys, "relations", "chshn", "--n", "3", "--form", "1")
        assert code == 0
        assert len(doc["pairs"]) == 6
        assert abs(sum(doc["y"]) - 1 / RT2) < 1e-9

    def test_residual_canonical(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        r = str(tmp_path / "r.json")
        run(capsys, "game", "chsh", "--n", "3", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "3", "--out", s)
        run(capsys, "relations", "chshn", "--n", "3", "--form", "2", "--out", r)
        code, rep, _ = run_json(capsys, "relations", "residual", g, s, r)
        assert code == 0
        out = rep["outputs"]
        assert out["identity_ok"] is True
        assert out["residual"] < 1e-9
        assert abs(out["bias"] - 1 / RT2) < 1e-9

    def test_extract_infeasible_y_fails_verification(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        y = tmp_path / "y.json"
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        y.write_text(json.dumps({"y": [0.0, 0.0, 0.0, 0.0]}))
        code, rep, _ = run_json(capsys, "relations", "extract", g, str(y))
        assert code == 2
        assert "error" in rep["outputs"]

    def test_invalid_form_rejected(self, capsys):
        code, _, err = run(capsys, "relations", "chshn", "--n", "2", "--form", "3")
        assert code == 1


class TestStrategyCommands:
    def test_canonical_artifact_shape(self, capsys):
        code, doc, _ = run_json(capsys, "strategy", "canonical", "--n", "2")
        assert code == 0
        assert doc["d_A"] == doc["d_B"] == 2
        assert len(doc["alice"]) == 2 and len(doc["bob"]) == 2
        assert len(doc["state"]) == 4

    def test_simulate_deterministic(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)
        code, rep1, _ = run_json(
            capsys, "strategy", "simulate", g, s, "--rounds", "20000", "--seed", "5"
        )
        code2, rep2, _ = run_json(
            capsys, "strategy", "simulate", g, s, "--rounds", "20000", "--seed", "5"
        )
        assert code == code2 == 0
        assert rep1["outputs"] == rep2["outputs"]
        out = rep1["outputs"]
        assert abs(out["empirical_bias"] - 1 / RT2) <= 5 * out["stderr"]

    def test_perturb_round_trip(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        p = str(tmp_path / "p.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)
        code, _, _ = run(
            capsys, "strategy", "perturb", s, "--theta", "0.1", "--seed", "1",
            "--out", p,
        )
        assert code == 0
        code, rep, _ = run_json(capsys, "strategy", "bias", g, p)
        assert code == 0
        assert 0.5 < rep["outputs"]["bias"] < 1 / RT2

    def test_tsirelson_rejects_complex_z(self, capsys, tmp_path):
        z = tmp_path / "z.json"
        z.write_text(
            json.dumps(
                {
                    "rows": 2,
                    "cols": 2,
                    "entries": [[1.0, 0.0], [0.0, 0.5], [0.0, -0.5], [1.0, 0.0]],
                }
            )
        )
        code, _, err = run(
            capsys, "strategy", "tsirelson", "--z", str(z), "--n", "1", "--m", "1"
        )
        assert code == 1
        assert "real" in err


class TestStructureCommand:
    def test_verify_canonical(self, capsys, tmp_path):
        s = str(tmp_path / "s.json")
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)
        code, rep, _ = run_json(capsys, "structure", "verify", s, "--n", "2")
        assert code == 0
        assert rep["outputs"]["verdict"] is True
        assert rep["outputs"]["schmidt_rank"] == 2

    def test_verify_perturbed_fails(self, capsys, tmp_path):
        s = str(tmp_path / "s.json")
        p = str(tmp_path / "p.json")
        run(capsys, "strategy", "canonical", "--n", "3", "--out", s)
        run(
            capsys, "strategy", "perturb", s, "--theta", "0.2", "--seed", "0",
            "--out", p,
        )
        code, rep, _ = run_json(capsys, "structure", "verify", p, "--n", "3")
        assert code == 2
        assert rep["outputs"]["verdict"] is False
        assert rep["outputs"]["anticommute_on_support"] > 1e-3


class TestIntertwinerCommand:
    def test_report_canonical(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        out = str(tmp_path / "rep.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)
        code, rep, _ = run_json(
            capsys, "intertwiner", "report", g, s, "--n", "2", "--out", out
        )
        assert code == 0
        assert rep["outputs"]["bounds_hold"] is True
        assert rep["outputs"]["frob_norm"] == 1.0
        full = sz.read_json(out)
        assert set(full) == {
            "t",
            "frob_norm",
            "alice_residuals",
            "bob_residuals",
            "epsilon",
            "alice_bound",
            "bob_bound",
            "bounds_hold",
        }
        t = sz.matrix_from_dict(full["t"])
        assert t.shape == (4, 4)

    def test_bound_violation_exits_2(self, capsys, tmp_path, monkeypatch):
        # a genuine violation is unreachable from valid files (epsilon is
        # measured from the same strategy), so exercise the branch directly
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)

        def fake_report(*a, **k):
            return IntertwinerReport(
                t=np.eye(4, dtype=complex) / 2.0,
                frob_norm=1.0,
                alice_residuals=(0.5, 0.5),
                bob_residuals=(0.5, 0.5),
                epsilon=0.0,
                alice_bound=0.0,
                bob_bound=0.0,
                bounds_hold=False,
            )

        monkeypatch.setattr(cli, "intertwiner_report", fake_report)
        code, rep, _ = run_json(capsys, "intertwiner", "report", g, s, "--n", "2")
        assert code == 2
        assert rep["outputs"]["bounds_hold"] is False


class TestSweepCommand:
    def test_small_grid_csv(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code, _, _ = run(
            capsys,
            "sweep",
            "--n-values", "2",
            "--thetas", "0,0.05",
            "--seeds", "0,1",
            "--out", out,
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(sz.SWEEP_COLUMNS)
        assert len(rows) == 1 + 1 * 2 * 2
        for row in rows[1:]:
            n, theta, seed, eps, ares, abound, bres, bbound = row
            assert float(ares) <= float(abound) + 1e-12 or float(eps) < 1e-12
            if float(theta) == 0.0:
                assert float(ares) <= 1e-8 and float(bres) <= 1e-8

    def test_stdout_equals_out_file(self, capsys, tmp_path):
        argv = ("sweep", "--n-values", "2", "--thetas", "0.03", "--seeds", "0,1,2")
        code, stdout, _ = run(capsys, *argv)
        out = tmp_path / "sweep.csv"
        code2, printed, _ = run(capsys, *argv, "--out", str(out))
        assert code == code2 == 0
        assert printed == ""
        assert out.read_bytes() == stdout.encode()

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--n-values", "")
        assert code == 1

    def test_unparsable_list_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--thetas", "a,b")
        assert code == 1

    def test_negative_theta_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--n-values", "2", "--thetas=-0.1", "--out", str(out))
        assert code == 1
        assert "theta" in err
        assert not out.exists()


class TestReportDeterminism:
    def test_same_argv_same_outputs(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        s = str(tmp_path / "s.json")
        run(capsys, "game", "chsh", "--n", "2", "--out", g)
        run(capsys, "strategy", "canonical", "--n", "2", "--out", s)
        _, rep1, _ = run_json(capsys, "strategy", "bias", g, s)
        _, rep2, _ = run_json(capsys, "strategy", "bias", g, s)
        rep1.pop("wall_time")
        rep2.pop("wall_time")
        assert rep1 == rep2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "strategy", "canonical")
        assert code == 1

    def test_cached_parser_matches_fresh_parsers(self, capsys):
        # main reuses one parser per process; a usage error on it must not
        # change how later commands parse
        argvs = [
            ("strategy", "canonical"),
            ("game", "chsh", "--n", "2"),
            ("relations", "chshn", "--n", "3", "--form", "2", "--bogus"),
            ("relations", "chshn", "--n", "3", "--form", "2"),
            ("frobnicate",),
            ("strategy", "canonical", "--n", "3"),
            ("sweep", "--n-values", "2", "--thetas", "0.05", "--seeds", "0"),
        ]
        assert cli.build_parser() is cli.build_parser()
        cached = [run(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert cached == fresh
        assert [c[0] for c in cached] == [1, 0, 1, 0, 1, 0, 0]


@pytest.fixture(scope="module")
def chsh2(tmp_path_factory):
    """CHSH(2) artifacts written by the CLI: game, canonical strategy, dual y,
    correlation matrix z and extracted relations."""
    d = tmp_path_factory.mktemp("chsh2")
    f = {k: str(d / f"{k}.json") for k in ("g", "can", "y", "z", "rel")}
    for argv in (
        ["game", "chsh", "--n", "2", "--out", f["g"]],
        ["strategy", "canonical", "--n", "2", "--out", f["can"]],
        ["solve", f["g"], "--dump-y", f["y"], "--dump-z", f["z"]],
        ["relations", "extract", f["g"], f["y"], "--out", f["rel"]],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    f["dir"] = str(d)
    return f


REPORT_COMMANDS = [
    ("game chsh", ["game", "chsh", "--n", "2", "--out", "{dir}/out.json"]),
    ("game check", ["game", "check", "{g}"]),
    ("solve", ["solve", "{g}"]),
    ("relations extract", ["relations", "extract", "{g}", "{y}", "--out", "{dir}/out.json"]),
    ("relations chshn", ["relations", "chshn", "--n", "2", "--form", "1", "--out", "{dir}/out.json"]),
    ("relations residual", ["relations", "residual", "{g}", "{can}", "{rel}"]),
    ("strategy canonical", ["strategy", "canonical", "--n", "2", "--out", "{dir}/out.json"]),
    ("strategy tsirelson", ["strategy", "tsirelson", "--z", "{z}", "--n", "2", "--m", "2",
                            "--out", "{dir}/out.json"]),
    ("strategy bias", ["strategy", "bias", "{g}", "{can}"]),
    ("strategy simulate", ["strategy", "simulate", "{g}", "{can}", "--rounds", "100", "--seed", "0"]),
    ("strategy perturb", ["strategy", "perturb", "{can}", "--theta", "0.1", "--seed", "0",
                          "--out", "{dir}/out.json"]),
    ("structure verify", ["structure", "verify", "{can}", "--n", "2"]),
    ("intertwiner report", ["intertwiner", "report", "{g}", "{can}", "--n", "2"]),
]


class TestRunReports:
    @pytest.mark.parametrize("command,argv", REPORT_COMMANDS, ids=[c for c, _ in REPORT_COMMANDS])
    def test_command_field(self, capsys, chsh2, command, argv):
        code, rep, _ = run_json(capsys, *(a.format(**chsh2) for a in argv))
        assert code == 0
        assert rep["command"] == command
        assert list(rep) == ["command", "inputs", "outputs", "wall_time"]

    def test_intertwiner_outputs_without_out_match_the_file(self, capsys, chsh2, tmp_path):
        p = str(tmp_path / "p.json")
        out = str(tmp_path / "itw.json")
        run(capsys, "strategy", "perturb", chsh2["can"], "--theta", "0.05", "--seed", "1", "--out", p)
        argv = ("intertwiner", "report", chsh2["g"], p, "--n", "2")
        code, bare, _ = run_json(capsys, *argv)
        code2, written, _ = run_json(capsys, *argv, "--out", out)
        assert code == code2 == 0
        assert written["outputs"].pop("written") == out
        assert bare["outputs"] == written["outputs"]
        full = sz.read_json(out)
        assert list(full) == [
            "t", "frob_norm", "alice_residuals", "bob_residuals",
            "epsilon", "alice_bound", "bob_bound", "bounds_hold",
        ]
        assert {k: v for k, v in full.items() if k != "t"} == bare["outputs"]

    def test_structure_verify_outputs_are_the_report_fields(self, capsys, chsh2):
        code, rep, _ = run_json(capsys, "structure", "verify", chsh2["can"], "--n", "2")
        assert code == 0
        want = verify_optimal_form(sz.strategy_from_dict(sz.read_json(chsh2["can"])), 2)
        assert list(rep["outputs"]) == [f.name for f in dataclasses.fields(StructureReport)]
        for name, value in rep["outputs"].items():
            expected = getattr(want, name)
            assert value == (sz.jfloat(expected) if isinstance(expected, float) else expected)


class TestOutputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "chsh", "--n", "2", "--out", "{bad}"],
            ["solve", "{g}", "--dump-z", "{bad}"],
            ["solve", "{g}", "--dump-y", "{bad}"],
            ["solve", "{g}", "--out", "{bad}"],
            ["intertwiner", "report", "{g}", "{can}", "--n", "2", "--out", "{bad}"],
            ["sweep", "--n-values", "2", "--thetas", "0", "--seeds", "0", "--out", "{bad}"],
        ],
        ids=["game-chsh", "solve-dump-z", "solve-dump-y", "solve-out", "intertwiner", "sweep"],
    )
    def test_unwritable_out_is_a_one_line_error(self, capsys, chsh2, tmp_path, argv):
        bad = str(tmp_path / "no-such-dir" / "out")
        code, out, err = run(capsys, *(a.format(bad=bad, **chsh2) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("xorgame: error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestMalformedInputNamesTheFile:
    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["relations", "extract", "{g}", "{bad}"], {"x": [1.0]}),
            (["strategy", "tsirelson", "--z", "{bad}", "--n", "1", "--m", "1"], {"rows": 2, "cols": 2}),
            (["relations", "residual", "{g}", "{can}", "{bad}"], {"y": [1.0]}),
        ],
        ids=["y", "z", "relations"],
    )
    def test_error_names_the_file(self, capsys, chsh2, tmp_path, argv, doc):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, *(a.format(bad=str(bad), **chsh2) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"xorgame: error: {bad}: ")


def _with_nan(path, keys):
    """The JSON document at path with a NaN at the entry that keys lead to."""
    doc = sz.read_json(path)
    *head, last = keys
    inner = doc
    for k in head:
        inner = inner[k]
    inner[last] = float("nan")
    return doc


NON_FINITE_CASES = {
    "strategy-bias": ("can", ["state", 0, 0], ["strategy", "bias", "{g}", "{bad}"]),
    "strategy-perturb": ("can", ["state", 0, 0],
                         ["strategy", "perturb", "{bad}", "--theta", "0.1", "--seed", "0",
                          "--out", "{out}"]),
    "structure-verify": ("can", ["state", 0, 0], ["structure", "verify", "{bad}", "--n", "2"]),
    "intertwiner-report": ("can", ["state", 0, 0],
                           ["intertwiner", "report", "{g}", "{bad}", "--n", "2"]),
    "relations-residual": ("rel", ["pairs", 0, "u", 0],
                           ["relations", "residual", "{g}", "{can}", "{bad}"]),
    "relations-extract": ("y", ["y", 0], ["relations", "extract", "{g}", "{bad}"]),
}


class TestInvalidNumbersNameTheFile:
    """Non-finite numbers in a strategy, relation or y file, and a z that
    is no correlation matrix for the given sizes, exit 1 with one error
    line naming the file, and write nothing."""

    @staticmethod
    def _assert_named(capsys, chsh2, tmp_path, doc, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code, stdout, err = run(
            capsys, *(a.format(bad=str(bad), out=str(out), **chsh2) for a in argv)
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith(f"xorgame: error: {bad}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", list(NON_FINITE_CASES))
    def test_non_finite(self, capsys, chsh2, tmp_path, case):
        source, keys, argv = NON_FINITE_CASES[case]
        doc = _with_nan(chsh2[source], keys)
        self._assert_named(capsys, chsh2, tmp_path, doc, argv)

    @pytest.mark.parametrize("case", ["wrong-shape", "empty", "not-psd"])
    def test_tsirelson_z(self, capsys, chsh2, tmp_path, case):
        # a CHSH(2) z is 4 × 4, so --m 3 wants 5 × 5; z[0, 1] = z[1, 0] = 2
        # gives the eigenvalue −1
        z = np.zeros((0, 0)) if case == "empty" else np.eye(4)
        n, m = ("2", "3") if case == "wrong-shape" else ("2", "2")
        if case == "not-psd":
            z[0, 1] = z[1, 0] = 2.0
        doc = json.loads(sz.dumps(sz.matrix_to_dict(z)))
        argv = ["strategy", "tsirelson", "--z", "{bad}", "--n", n, "--m", m, "--out", "{out}"]
        self._assert_named(capsys, chsh2, tmp_path, doc, argv)


class TestWrongTypedFieldsAreInputErrors:
    """A field of the wrong type or shape exits 1 with one error line naming
    the file; a well-formed but invalid game stays `game check`'s verdict
    (exit 2, see TestGameCommands.test_check_rejects_unnormalized)."""

    @staticmethod
    def _assert_input_error(capsys, bad, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"xorgame: error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"n_alice": 2, "n_bob": 2, "matrix": 5},
            {"n_alice": 2, "n_bob": 2, "matrix": [0.25]},
            {"n_alice": 2, "n_bob": 2},
            {"n_alice": -2, "n_bob": -2, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": "2", "n_bob": 2, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": "2", "n_bob": 2.9, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": 2, "n_bob": 2, "matrix": [0.25, 0.25, 0.25, -0.25], "labels": "ab"},
            {"n_alice": 2, "n_bob": 2, "matrix": [0.25, 0.25, 0.25, -0.25], "labels": ["a"]},
            {"n_alice": 1, "n_bob": 1, "matrix": [True]},
        ],
        ids=["matrix-is-a-number", "entry-count", "missing-matrix", "negative-sizes",
             "string-size", "string-and-fractional-sizes", "labels-string", "labels-count",
             "bool-entry"],
    )
    def test_game_check(self, capsys, tmp_path, doc):
        bad = tmp_path / "game.json"
        bad.write_text(json.dumps(doc))
        self._assert_input_error(capsys, bad, ["game", "check", str(bad)])

    @pytest.mark.parametrize("source,key,argv", [
        ("g", "matrix", ["game", "check", "{bad}"]),
        ("can", "state", ["strategy", "bias", "{g}", "{bad}"]),
    ], ids=["game-check", "strategy-bias"])
    def test_numbers_as_strings(self, capsys, chsh2, tmp_path, source, key, argv):
        # float() reads "0.25", but a number list holds JSON numbers only
        def strings(v):
            return [strings(x) for x in v] if isinstance(v, list) else str(v)

        doc = sz.read_json(chsh2[source])
        doc[key] = strings(doc[key])
        bad = tmp_path / "strings.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, *(a.format(bad=bad, **chsh2) for a in argv))
        assert (code, out) == (1, "")
        what = {"matrix": "game matrix", "state": "strategy state"}[key]
        assert err == f"xorgame: error: {bad}: {what} must hold numbers, got a string\n"

    @pytest.mark.parametrize("argv", [["game", "check", "{bad}"], ["solve", "{bad}"]],
                             ids=["game-check", "solve"])
    def test_non_utf8_input(self, capsys, tmp_path, argv):
        bad = tmp_path / "game.json"
        bad.write_bytes(b"\xff\xfe")
        self._assert_input_error(capsys, bad, [a.format(bad=bad) for a in argv])

    @pytest.mark.parametrize("field,value", [("alice", 3), ("state", 5)])
    def test_structure_verify(self, capsys, chsh2, tmp_path, field, value):
        doc = sz.read_json(chsh2["can"])
        doc[field] = value
        bad = tmp_path / "strategy.json"
        bad.write_text(json.dumps(doc))
        self._assert_input_error(capsys, bad, ["structure", "verify", str(bad), "--n", "2"])

    @pytest.mark.parametrize(
        "matrix",
        [{"rows": 4, "cols": 4, "entries": [[float(i % 5 == 0), 0.0] for i in range(16)]},
         {"rows": 2, "cols": 3, "entries": [[0.0, 0.0]] * 6},
         {"rows": 2, "cols": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}],
        ids=["wrong-dimension", "not-square", "not-hermitian"],
    )
    def test_malformed_observable(self, capsys, chsh2, tmp_path, matrix):
        doc = sz.read_json(chsh2["can"])
        doc["alice"][1] = matrix
        bad = tmp_path / "strategy.json"
        bad.write_text(json.dumps(doc))
        self._assert_input_error(capsys, bad, ["strategy", "bias", chsh2["g"], str(bad)])

    @pytest.mark.parametrize(
        "argv",
        [["structure", "verify", "{bad}", "--n", "2"],
         ["intertwiner", "report", "{g}", "{bad}", "--n", "2"]],
        ids=["structure-verify", "intertwiner-report"],
    )
    def test_strategy_without_alice_observables(self, capsys, chsh2, tmp_path, argv):
        doc = sz.read_json(chsh2["can"])
        doc["alice"] = []
        bad = tmp_path / "strategy.json"
        bad.write_text(json.dumps(doc))
        self._assert_input_error(capsys, bad, [a.format(bad=bad, **chsh2) for a in argv])

    @pytest.mark.parametrize(
        "argv",
        [["structure", "verify", "{can}", "--n", "3"],
         ["intertwiner", "report", "{g}", "{can}", "--n", "3"]],
        ids=["structure-verify", "intertwiner-report"],
    )
    def test_strategy_of_another_n(self, capsys, chsh2, argv):
        self._assert_input_error(capsys, chsh2["can"], [a.format(**chsh2) for a in argv])

    @pytest.mark.parametrize(
        "argv",
        [["strategy", "bias", "{g}", "{can3}"],
         ["strategy", "simulate", "{g}", "{can3}", "--rounds", "10", "--seed", "0"],
         ["relations", "residual", "{g}", "{can3}", "{rel}"]],
        ids=["strategy-bias", "strategy-simulate", "relations-residual"],
    )
    def test_strategy_that_does_not_fit_the_game(self, capsys, chsh2, tmp_path, argv):
        can3 = str(tmp_path / "can3.json")
        assert run(capsys, "strategy", "canonical", "--n", "3", "--out", can3)[0] == 0
        code, out, err = run(capsys, *(a.format(can3=can3, **chsh2) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"xorgame: error: {can3}: strategy has 3x6 observables, game wants 2x2\n"

    @pytest.mark.parametrize("game", ["random", "negated", "chsh2"])
    def test_intertwiner_report_game_that_is_not_chshn(self, capsys, chsh2, tmp_path, game):
        can3 = str(tmp_path / "can3.json")
        assert run(capsys, "strategy", "canonical", "--n", "3", "--out", can3)[0] == 0
        if game == "chsh2":
            bad = chsh2["g"]
        else:
            rng = np.random.default_rng(5)
            m = rng.standard_normal((3, 6)) if game == "random" else -chsh_game(3)[0].matrix
            bad = str(tmp_path / "game.json")
            sz.write_json(sz.game_to_dict(new_game(m, normalize=True)), bad)
        code, out, err = run(capsys, "intertwiner", "report", bad, can3, "--n", "3")
        assert (code, out) == (1, "")
        assert err.startswith(f"xorgame: error: {bad}: game is ") and "CHSH(3)" in err

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["relations", "extract", "{g}", "{bad}"], {"y": "1234"}),
            (["relations", "extract", "{g}", "{bad}"], {"y": ["abc"]}),
            (["relations", "residual", "{g}", "{can}", "{bad}"], {"y": "1234", "pairs": []}),
            (["relations", "residual", "{g}", "{can}", "{bad}"],
             {"y": [0.1] * 4, "pairs": [{"u": "12", "v": [1.0, 0.0]}]}),
        ],
        ids=["y-string", "y-string-entry", "relations-y-string", "relations-u-string"],
    )
    def test_string_fields_of_number_lists(self, capsys, chsh2, tmp_path, argv, doc):
        bad = tmp_path / "numbers.json"
        bad.write_text(json.dumps(doc))
        self._assert_input_error(capsys, bad, [a.format(bad=bad, **chsh2) for a in argv])

    @pytest.mark.parametrize(
        "pairs",
        [[{"u": [1.0, 0.0, 0.0], "v": [0.0, 1.0]}],
         [{"u": [1.0, 0.0], "v": [0.0, 1.0]}, {"u": [1.0], "v": [0.0]}]],
        ids=["u-length", "ragged"],
    )
    def test_relation_pairs_that_do_not_fit_the_game(self, capsys, chsh2, tmp_path, pairs):
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps({"y": [0.1] * 4, "pairs": pairs}))
        argv = ["relations", "residual", chsh2["g"], chsh2["can"], str(bad)]
        self._assert_input_error(capsys, bad, argv)


class TestInvalidParametersAreInputErrors:
    """An n below 2 and a negative or non-finite cutoff or tolerance exit 1
    with one error line: they reject the input, they are no verdict."""

    @staticmethod
    def _assert_input_error(capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("xorgame: error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["structure", "verify", "{s}", "--n", "1"],
         ["intertwiner", "report", "{g}", "{s}", "--n", "1"]],
        ids=["structure-verify", "intertwiner-report"],
    )
    @pytest.mark.parametrize("shape", ["1x0", "2x2"])
    def test_n_below_two(self, capsys, chsh2, tmp_path, argv, shape):
        # a 1x0 strategy has the shape CHSH(1) would ask for
        path = chsh2["can"]
        if shape == "1x0":
            path = str(tmp_path / "one.json")
            s = Strategy((np.diag([1.0, -1.0]),), np.zeros((0, 2, 2)), np.eye(2) / RT2)
            sz.write_json(sz.strategy_to_dict(s), path)
        argv = [a.format(s=path, **chsh2) for a in argv]
        # n is checked before any file is read, so the one line names no file
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "xorgame: error: CHSH(n) needs integer n >= 2, got 1\n"

    @pytest.mark.parametrize("n,m", [("0", "4"), ("-1", "5"), ("2", "0")],
                             ids=["zero-n", "negative-n", "zero-m"])
    def test_tsirelson_counts_below_one(self, capsys, chsh2, n, m):
        # the counts are checked before z is read, so the one line names no
        # file, although n + m = 4 fits the CHSH(2) z at n = 0 and n = −1
        code, out, err = run(capsys, "strategy", "tsirelson", "--z", chsh2["z"], "--n", n, "--m", m)
        assert (code, out) == (1, "")
        assert err == f"xorgame: error: a strategy needs n, m >= 1 questions, got n = {n}, m = {m}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_relations_extract_cutoff(self, capsys, chsh2, value):
        argv = ["relations", "extract", chsh2["g"], chsh2["y"], "--cutoff", value]
        self._assert_input_error(capsys, argv, "cutoff must be finite and >= 0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_structure_verify_tol(self, capsys, chsh2, value):
        argv = ["structure", "verify", chsh2["can"], "--n", "2", "--tol", value]
        self._assert_input_error(capsys, argv, "tol must be finite and >= 0")


# sha256 of each artifact for n = 2..8, as `--out` writes it.  These
# artifacts come from sums, differences and Kronecker products of exact
# matrices, with no BLAS call, so their bytes are the same on every host.
GOLDEN_SHA256 = {
    ("game", "chsh"): [
        "b29992693c08bf9d7c98d04e35404e5194ed249943d0e3379f0cd62b4d6308f3",
        "eb6a490065bf7a99eaa08351890492eaefa97daf68cc697edca6c02f6ad9215d",
        "ec6cedffb8dd6c9fa68c8250916b70ae69424cb1bced391d8a1481eef7d474ec",
        "cf3511ac989ae373fce8e17c48fa429741ac510b4f05fa829947bfae9767c4ac",
        "6b0059f0887decb2492a4e0fdf1119bbe36d36133576968e9787faf815f41512",
        "2b573f2de0f1575e542f29a407195ad674d02aff8ae48ce2fec2ea154a898e9a",
        "3362e03d3af65b5d2d4078b9afe8713255eea3de5ca455aaa045a8ff6b7138f4",
    ],
    ("relations", "chshn", "--form", "1"): [
        "95e24450e43f4c54be69404f133edade2b43df94093aa51251771de9a33ca416",
        "5fddc9338c9d605af89908652aea10a2e31fefaf11ed87e1de81c980713c8813",
        "54087bf8f8c4de0bb8f4f9c9231911feb415d99bdcd2de34a4f691f0fca5434f",
        "5e3f1ab26c8c265a7078e0ae3b55b152b804e2852beeaf7385ca5509e39dd6e5",
        "929c8b26407b8241343b50a619e7e64651b7b04b4501d91f5a73d63ef586b698",
        "f595eed08f7352f26b9e0137b48c91e774563f3ef367ebae24fc3f8e3368bbae",
        "4c7395bd6b0f8051e4b514b3f0667145ae7624c92ea76124ebc111c9a26329c4",
    ],
    ("relations", "chshn", "--form", "2"): [
        "21d57e8769ed49ce494f68bccee41396770ee95056300e2cd05a11af54ca333b",
        "0d3a9aa8673ed93e88dde866508102da82fb3b7b25bcb6399f83636371a11d4f",
        "7d1de7108a924128160d84f2822b994d69224ea87f33b634806526b22c043ed5",
        "bd5a8b7bad51ef30538c9445fbd8bad929f172285d9e0bf257c8bca7b97eb704",
        "84303ee491c70e51277a5665a5d275b35a47dd1b9a0dd587ace9b63ea082c050",
        "1a6046ff806ad3b382a7b4af85e234438d6e7c5ef52fb9094ec9a0f0396382bc",
        "d7208f9a143b056b2b79c731f12a24ce58cb90fa95f31df7011307a11a3ba1aa",
    ],
    ("strategy", "canonical"): [
        "276a2b4dbea49992fba5d4b011f3be8f3e599a06152ef4591bb3e55f95fa03ea",
        "1ead7b1fa635a0dca7af8a48dbf5f6670ca56aad3709aa81c5683e3e23584cc1",
        "a192878b2a91a19a7df5086b54fe36869c17b76c1e075fb94324fce8947f8fae",
        "39a192e0e153e799af35cd2b61523cea8fe404d1de5d933bd5b32629c455fe3d",
        "96d41bbe8491699889cdd800a91f9adeffccc451efa192882b09abe7ecd3b420",
        "f953e4fc915f7ad29e9ec4954dfc3760c88edf2d75813f7f098384ceaea5a28b",
        "1651c17d8546c6b3d61ac98546d0a5b57fa61d4b21f76810769ddf910d4df061",
    ],
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_golden_artifact_bytes(capsys, tmp_path, argv):
    out = tmp_path / "artifact.json"
    digests = []
    for n in range(2, 9):
        assert cli.main([*argv, "--n", str(n), "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert digests == GOLDEN_SHA256[argv]
