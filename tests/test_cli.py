import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import xorgame.cli as cli
from xorgame import serialize as sz
from xorgame.games import symmetrize
from xorgame.sdp import solve
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
