"""The three benchmark workloads: inputs from a seed, timed tasks, checks.

Each workload builds its task list once from the workload seed; a pass runs
every task in order and every pass repeats the same inputs, so the exact
counts of one pass (SDP iterations, relation pairs, intertwiner bytes) must
repeat in every other pass and in every run of the same code and seed.

A task has three parts:
  run     the public xorgame calls, timed; one span per call.
  check   the benchmark's verdict on the outputs, untimed.  It returns the
          failed checks and, among them, those where the program handed back
          a wrong answer as a success (these make the run incorrect).  A loud
          failure, such as MaxIterations, is counted as failed, not wrong.
          A check the benchmark cannot make is listed as skipped, with why.
  probe   traced runs only: direct calls on the same inputs into layers that
          the task reaches only inside another layer's call.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import xorgame as xg
from xorgame import cli, serialize

from tracing import NullTracer

TOL = 1e-8
TSIRELSON = 1.0 / np.sqrt(2.0)
NULL = NullTracer()


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def fail(self, msg: str, wrong: bool) -> None:
        self.failures.append(msg)
        if wrong:
            self.wrong.append(msg)


def warm_blas() -> None:
    """Start the BLAS thread pool: its first threaded call costs ~0.8 s once."""
    a = np.ones((256, 256), dtype=complex)
    (a @ a).sum()


# ---------------------------------------------------------------- solve


@dataclass(frozen=True)
class SolveTask:
    label: str
    kind: str  # "chsh", "scaled" or "random"
    n: int = 0
    scale: float = 1.0
    raw: np.ndarray | None = None


class Solve:
    """One bias SDP per task: CHSH(n), scaled CHSH objectives, random games."""

    name = "solve"
    CHSH_NS = (2, 3, 4, 5)
    SCALES = (1e-2, 1e-1, 1e1, 1e2)
    SCALED_NS = (2, 3)
    # Random sizes fill the 0.5-0.9 s band around CHSH(3), so the median task
    # lies inside a cluster of similar tasks rather than between cost classes.
    RANDOM_SIZES = ((2, 3), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (6, 9))
    # Light tasks (objective at most 9x9 and not scaled x100) run this many
    # times per pass, spread between the heavy ones.  The median task is then
    # a median of repeats, not one sample of a host speed phase.  Each task
    # still counts once in the figures.
    LIGHT_REPEATS = 3

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        chsh = [SolveTask(f"chsh{n}", "chsh", n=n) for n in self.CHSH_NS]
        scaled = [
            SolveTask(f"chsh{n}x{s:g}", "scaled", n=n, scale=s)
            for n in self.SCALED_NS
            for s in self.SCALES
        ]
        random = [
            SolveTask(f"random{a}x{b}", "random", raw=rng.standard_normal((a, b)))
            for a, b in self.RANDOM_SIZES
        ]
        # interleaved, so that similar tasks run at different times of the pass
        mixed = [t for group in itertools.zip_longest(chsh, scaled, random) for t in group if t]
        light = [t for t in mixed if self._light(t)]
        heavy = [t for t in mixed if not self._light(t)]
        self.tasks = []
        for r in range(self.LIGHT_REPEATS):
            self.tasks += light + heavy[r::self.LIGHT_REPEATS]

    @staticmethod
    def _light(task: SolveTask) -> bool:
        if task.kind == "random":
            return sum(task.raw.shape) <= 9
        return task.n * task.n <= 9 and task.scale <= 10

    def warmup(self) -> None:
        warm_blas()
        task = SolveTask("warmup", "chsh", n=2)
        self.probe(task, self.run(task, NULL), NULL)

    def run(self, task: SolveTask, tr):
        tag = {"n": task.n} if task.kind == "chsh" else {}
        with tr.span("games.build", **tag):
            if task.kind == "random":
                g = xg.new_game(task.raw, normalize=True)
            else:
                g, _ = xg.chsh_game(task.n)
            objective = xg.symmetrize(g) * task.scale
        classical = refused = None
        if task.kind != "scaled":
            with tr.span("games.classical_bias", **tag):
                try:
                    classical = xg.classical_bias(g)
                except xg.TooLarge as exc:  # the documented enumeration guard: CHSH(5)
                    refused = str(exc)
        stalled = False
        with tr.span("sdp.solve", **tag) as sp:
            try:
                sol = xg.solve(objective, TOL)
            except xg.MaxIterations as exc:
                sol, stalled = exc.solution, True
            sp.attrs["iterations"] = sol.iterations
        with tr.span("sdp.verify_dual_feasible", **tag):
            feasible, min_eig = xg.verify_dual_feasible(sol.y, objective)
        return {
            "objective": objective,
            "sol": sol,
            "stalled": stalled,
            "feasible": feasible,
            "min_eig": min_eig,
            "classical": classical,
            "classical_refused": refused,
        }

    def check(self, task: SolveTask, out, tr) -> Verdict:
        v = Verdict()
        sol = out["sol"]
        # Once the solver has raised MaxIterations every shortfall is loud.
        promised = not out["stalled"]
        if out["stalled"]:
            v.fail(f"MaxIterations after {sol.iterations} iterations (gap {sol.gap:.2e})", False)
        elif not sol.gap <= TOL:
            v.fail(f"converged with gap {sol.gap:.2e} > tol", True)
        if not out["feasible"]:
            v.fail(f"dual point infeasible (slack min eigenvalue {out['min_eig']:.2e})", promised)
        z = sol.z
        diag_dev = float(np.abs(np.diag(z) - 1.0).max())
        if diag_dev > 1e-12:
            v.fail(f"Z diagonal deviates from 1 by {diag_dev:.2e}", True)
        z_min = float(np.linalg.eigvalsh((z + z.T) / 2)[0])
        if z_min < -1e-10:
            v.fail(f"Z is not PSD (min eigenvalue {z_min:.2e})", True)
        if task.kind != "random":
            dev = abs(sol.primal_value / task.scale - TSIRELSON)
            if dev > TOL:
                # gap <= tol only promises |beta - scale/sqrt2| <= tol.
                beyond_certificate = dev * task.scale > TOL
                v.fail(f"|beta/scale - 1/sqrt2| = {dev:.2e} > {TOL:g}", promised and beyond_certificate)
        if out["classical_refused"]:
            # a limit of this check, not a program failure: not counted
            v.skipped.append(f"quantum >= classical: {out['classical_refused']}")
        elif out["classical"] is not None and sol.primal_value < out["classical"] - TOL:
            v.fail(
                f"quantum {sol.primal_value:.12g} < classical {out['classical']:.12g} - tol",
                promised,
            )
        return v

    def probe(self, task, out, tr) -> None:
        sol = out["sol"]
        slack = np.diag(sol.y) - out["objective"]
        tag = {"n": task.n} if task.kind == "chsh" else {}
        with tr.span("linalg.hermitian_eig", probe=True, dim=slack.shape[0], **tag):
            xg.hermitian_eig(slack)

    def counts(self, task: SolveTask, out) -> dict:
        it = out["sol"].iterations
        c = {"sdp.iterations": it, "sdp.max_iterations": int(out["stalled"])}
        if task.kind == "chsh":
            c[f"sdp.iterations.n{task.n}"] = it
        return c


# ---------------------------------------------------------------- certify


@dataclass(frozen=True)
class CertifyTask:
    label: str
    n: int
    theta: float
    seed: int


class Certify:
    """One rigidity cell (n, theta, seed) per task; no SDP."""

    name = "certify"
    NS = tuple(range(2, 9))
    THETAS = (0.0, 0.01, 0.05, 0.1)
    # Two perturbation seeds per theta > 0 put the median task inside the
    # cluster of equally costly n = 5, 6 perturbed cells rather than on the
    # edge between two cost classes, where it would jump between runs.
    SEEDS_PER_THETA = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.tasks = []
        for n in self.NS:
            for theta in self.THETAS:
                for _ in range(1 if theta == 0.0 else self.SEEDS_PER_THETA):
                    cell_seed = int(rng.integers(2**31))
                    self.tasks.append(
                        CertifyTask(f"n{n}t{theta:g}s{cell_seed}", n, theta, cell_seed)
                    )

    def warmup(self) -> None:
        warm_blas()
        for task in (CertifyTask("warmup", 2, 0.0, 0), CertifyTask("warmup", 5, 0.05, 0)):
            self.probe(task, self.run(task, NULL), NULL)

    def run(self, task: CertifyTask, tr):
        n = task.n
        with tr.span("games.build", n=n):
            g, _ = xg.chsh_game(n)
        with tr.span("strategies.canonical", n=n):
            base = xg.canonical_chshn(n)
        with tr.span("strategies.perturb", n=n):
            s = xg.perturb(base, task.theta, task.seed)
        with tr.span("relations.closed_form", n=n):
            forms = (xg.chshn_relations_form1(n), xg.chshn_relations_form2(n))
        identities = []
        for rel in forms:
            with tr.span("relations.check_identity", n=n):
                identities.append(xg.check_identity(g, s, rel))
        with tr.span("structure.intertwiner_report", n=n):
            rep = xg.intertwiner_report(g, s, n)
        with tr.span("structure.anticommutation_residual", n=n):
            anti = xg.anticommutation_residual(s, n)
        optimal = None
        if task.theta == 0.0:
            with tr.span("structure.verify_optimal_form", n=n):
                optimal = xg.verify_optimal_form(s, n)
        return {
            "strategy": s,
            "forms": forms,
            "identities": identities,
            "report": rep,
            "anti": anti,
            "optimal": optimal,
        }

    def check(self, task: CertifyTask, out, tr) -> Verdict:
        v = Verdict()
        n = task.n
        for form, (lhs, rhs, ok) in zip((1, 2), out["identities"]):
            if not ok:
                v.fail(f"residual identity fails for form {form}: {lhs:.3e} vs {rhs:.3e}", True)
        rep = out["report"]
        if abs(rep.frob_norm - 1.0) > 1e-9:
            v.fail(f"|‖T‖_F - 1| = {abs(rep.frob_norm - 1.0):.2e} > 1e-9", True)
        if not rep.bounds_hold:
            v.fail("intertwiner residuals exceed 12n²√ε / 17n²√ε", True)
        anti_bound = (1.0 + np.sqrt(2.0)) ** 2 * n * (n - 1) * rep.epsilon
        if out["anti"] > anti_bound + 1e-12:
            v.fail(f"anticommutation residual {out['anti']:.3e} > bound {anti_bound:.3e}", True)
        if out["optimal"] is not None and not out["optimal"].verdict:
            v.fail("verify_optimal_form rejects an exactly optimal strategy", True)
        return v

    def probe(self, task: CertifyTask, out, tr) -> None:
        s = out["strategy"]
        with tr.span("linalg.schmidt", probe=True, n=task.n):
            xg.schmidt(s.state, s.d_A, s.d_B)

    def counts(self, task: CertifyTask, out) -> dict:
        t = out["report"].t
        return {
            "relations.pairs": sum(rel.r for rel in out["forms"]),
            "structure.t_bytes": t.shape[0] * t.shape[1] * 16,
        }


# ---------------------------------------------------------------- pipeline


def _reload_redump(kind: str, raw) -> dict:
    """Load an artifact with the serialize layer and dump it again."""
    if kind == "game":
        return serialize.game_to_dict(serialize.game_from_dict(raw))
    if kind == "y":
        return serialize.y_to_dict(serialize.y_from_dict(raw))
    if kind == "relations":
        game_n, game_m = len(raw["pairs"][0]["u"]), len(raw["pairs"][0]["v"])
        return serialize.relations_to_dict(serialize.relations_from_dict(raw, game_n, game_m))
    if kind == "strategy":
        return serialize.strategy_to_dict(serialize.strategy_from_dict(raw))
    if kind == "solution":  # no typed loader: round-trip the matrix field
        return dict(raw, z=serialize.matrix_to_dict(serialize.matrix_from_dict(raw["z"])))
    if kind == "report":
        return dict(raw, t=serialize.matrix_to_dict(serialize.matrix_from_dict(raw["t"])))
    raise ValueError(f"unknown artifact kind {kind!r}")


@dataclass(frozen=True)
class PipelineTask:
    label: str
    theta: float
    seed3: int
    seed7: int
    sim_seed: int


class Pipeline:
    """The README quick-start through in-process `xorgame.cli.main`, per task."""

    name = "pipeline"
    THETA = 0.05
    SIM_ROUNDS = 100_000
    # artifact file -> kind understood by _reload_redump ("csv": digest only)
    ARTIFACTS = {
        "chsh3.json": "game",
        "y3.json": "y",
        "sol3.json": "solution",
        "rel3.json": "relations",
        "can3.json": "strategy",
        "pert3.json": "strategy",
        "itw3.json": "report",
        "sweep.csv": "csv",
        "chsh7.json": "game",
        "can7.json": "strategy",
        "pert7.json": "strategy",
        "itw7.json": "report",
    }

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        s3, s7, ss = (int(x) for x in rng.integers(2**31, size=3))
        self.tasks = [PipelineTask(f"quickstart-s{s3}", self.THETA, s3, s7, ss)]
        self.workdir = workdir
        self._executions = 0
        self.first_digests: dict[str, str] | None = None

    @staticmethod
    def chain(task: PipelineTask, d: str, n: int = 3, tail_n: int = 7, rounds: int = SIM_ROUNDS):
        def p(name):
            return os.path.join(d, name)

        th = repr(task.theta)
        return [
            ["game", "chsh", "--n", str(n), "--out", p("chsh3.json")],
            ["solve", p("chsh3.json"), "--dump-y", p("y3.json"), "--out", p("sol3.json")],
            ["relations", "extract", p("chsh3.json"), p("y3.json"), "--out", p("rel3.json")],
            ["strategy", "canonical", "--n", str(n), "--out", p("can3.json")],
            ["relations", "residual", p("chsh3.json"), p("can3.json"), p("rel3.json")],
            ["structure", "verify", p("can3.json"), "--n", str(n)],
            ["strategy", "perturb", p("can3.json"), "--theta", th, "--seed", str(task.seed3),
             "--out", p("pert3.json")],
            ["intertwiner", "report", p("chsh3.json"), p("pert3.json"), "--n", str(n),
             "--out", p("itw3.json")],
            ["strategy", "simulate", p("chsh3.json"), p("can3.json"), "--rounds", str(rounds),
             "--seed", str(task.sim_seed)],
            ["sweep", "--out", p("sweep.csv")] if n == 3 else
            ["sweep", "--n-values", str(n), "--thetas", "0", "--seeds", "0", "--out", p("sweep.csv")],
            ["game", "chsh", "--n", str(tail_n), "--out", p("chsh7.json")],
            ["strategy", "canonical", "--n", str(tail_n), "--out", p("can7.json")],
            ["strategy", "perturb", p("can7.json"), "--theta", th, "--seed", str(task.seed7),
             "--out", p("pert7.json")],
            ["strategy", "bias", p("chsh7.json"), p("pert7.json")],
            ["intertwiner", "report", p("chsh7.json"), p("pert7.json"), "--n", str(tail_n),
             "--out", p("itw7.json")],
        ]

    def _fresh_dir(self) -> str:
        self._executions += 1
        d = os.path.join(self.workdir, f"exec{self._executions}")
        os.makedirs(d)
        return d

    def warmup(self) -> None:
        warm_blas()
        d = self._fresh_dir()
        try:
            task = PipelineTask("warmup", self.THETA, 0, 0, 0)
            for argv in self.chain(task, d, n=2, tail_n=4, rounds=1000):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
        finally:
            shutil.rmtree(d)

    def run(self, task: PipelineTask, tr):
        d = self._fresh_dir()
        steps = []
        for argv in self.chain(task, d):
            sub = argv[0] if argv[0] in ("solve", "sweep") else f"{argv[0]}_{argv[1]}"
            buf = io.StringIO()
            with tr.span(f"cli.{sub}"), contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            steps.append((" ".join(argv[:2]), rc, buf.getvalue()))
        return {"dir": d, "steps": steps}

    def check(self, task: PipelineTask, out, tr) -> Verdict:
        v = Verdict()
        d = out["dir"]
        try:
            self._check_steps(out["steps"], v)
            self._check_artifacts(d, v, tr)
        finally:
            shutil.rmtree(d)
        return v

    @staticmethod
    def _check_steps(steps, v: Verdict) -> None:
        for cmd, rc, stdout in steps:
            if rc != 0:
                v.fail(f"`xorgame {cmd}` exited {rc}", True)
                continue
            if cmd.startswith(("relations residual", "structure verify", "intertwiner report")):
                outputs = json.loads(stdout)["outputs"]
                for key in ("identity_ok", "verdict", "bounds_hold"):
                    if key in outputs and outputs[key] is not True:
                        v.fail(f"`xorgame {cmd}` reports {key} = {outputs[key]}", True)

    def _check_artifacts(self, d: str, v: Verdict, tr) -> None:
        digests = {}
        for name, kind in self.ARTIFACTS.items():
            path = os.path.join(d, name)
            if not os.path.exists(path):
                v.fail(f"artifact {name} missing", True)
                continue
            digests[name] = serialize.sha256_digest(path)
            if kind == "csv":
                continue
            with tr.span("serialize.read", probe=True, bytes=os.path.getsize(path)):
                raw = serialize.read_json(path)
                data = _reload_redump(kind, raw)
            again = os.path.join(d, "redump-" + name)
            with tr.span("serialize.write", probe=True) as sp:
                serialize.write_json(data, again)
            sp.attrs["bytes"] = os.path.getsize(again)
            if serialize.sha256_digest(again) != digests[name]:
                v.fail(f"re-loading and re-dumping {name} changes its bytes", True)
        if self.first_digests is None:
            self.first_digests = digests
        for name, digest in digests.items():
            if self.first_digests.get(name) != digest:
                v.fail(f"{name} differs from the first pass (sha256)", True)

    def probe(self, task: PipelineTask, out, tr) -> None:
        d = out["dir"]

        def load(name, loader):
            return loader(serialize.read_json(os.path.join(d, name)))

        g3 = load("chsh3.json", serialize.game_from_dict)
        can3 = load("can3.json", serialize.strategy_from_dict)
        y3 = load("y3.json", serialize.y_from_dict)
        g7 = load("chsh7.json", serialize.game_from_dict)
        pert7 = load("pert7.json", serialize.strategy_from_dict)
        with tr.span("relations.extract", probe=True, n=3) as sp:
            sp.attrs["pairs"] = xg.extract_relations(g3, y3).r
        with tr.span("strategies.simulate", probe=True, n=3, rounds=self.SIM_ROUNDS):
            xg.simulate(g3, can3, self.SIM_ROUNDS, task.sim_seed)
        with tr.span("strategies.bias", probe=True, n=7):
            xg.bias(g7, pert7)
        with tr.span("structure.intertwiner_report", probe=True, n=7):
            xg.intertwiner_report(g7, pert7, 7)

    def counts(self, task: PipelineTask, out) -> dict:
        d = out["dir"]
        c = {}
        for cmd, rc, stdout in out["steps"]:
            if cmd.startswith("solve") and rc == 0:
                c["sdp.iterations"] = json.loads(stdout)["outputs"]["iterations"]
        with open(os.path.join(d, "rel3.json")) as fh:
            c["relations.pairs"] = len(json.load(fh)["pairs"])
        t_bytes = 0
        for name in ("itw3.json", "itw7.json"):
            with open(os.path.join(d, name)) as fh:
                t = json.load(fh)["t"]
            t_bytes += t["rows"] * t["cols"] * 16
        c["structure.t_bytes"] = t_bytes
        return c


WORKLOADS = {w.name: w for w in (Solve, Certify, Pipeline)}
