"""Command-line front end.

One binary, seven subcommand families: game, solve, relations, strategy,
structure, intertwiner, sweep.  Artifact-producing commands print the
artifact JSON to standard output, or write it to --out and print a run
report instead; checking commands always print a run report.  Outputs
and files that mirror a library result dataclass (`solve` and its --out,
`structure verify`, `intertwiner report`) go through the one encoder,
`serialize.report_to_dict`.  Exit codes: 0 success, 2 verification
failure, 1 usage or input error (including unreadable input and unwritable
output files).
"""
from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import serialize
from .games import chsh_game, require_chshn_n, symmetrize
from .relations import (
    DualInfeasible,
    check_identity,
    chshn_relations_form1,
    chshn_relations_form2,
    extract_relations,
)
from .sdp import DEFAULT_TOL, MaxIterations, solve
from .strategies import (
    bias,
    canonical_chshn,
    perturb,
    require_game_shape,
    require_question_counts,
    simulate,
    tsirelson_strategy,
)
from .structure import (
    intertwiner_report,
    intertwiner_sweep,
    require_chshn_game,
    require_chshn_shape,
    verify_optimal_form,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for
    verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str, from_dict, inputs: dict):
    """Parse a JSON input file with from_dict and record its sha256 in
    inputs; an error from from_dict names the file and stays a
    FileFormatError if it was one."""
    raw = serialize.read_json(path)
    inputs[path] = serialize.sha256_digest(path)
    return _naming(path, from_dict, raw)


def _naming(path: str, f, *args):
    """f(*args), with the message of a ValueError from it prefixed by path;
    a FileFormatError stays one."""
    try:
        return f(*args)
    except ValueError as exc:
        kind = serialize.FileFormatError if isinstance(exc, serialize.FileFormatError) else ValueError
        raise kind(f"{path}: {exc}") from exc


def _load_strategy(args, inputs, check):
    """The strategy file args.strategy, passed through check, a shape check
    that returns the strategy."""
    return _load(args.strategy, lambda d: check(serialize.strategy_from_dict(d)), inputs)


def _print(data) -> None:
    sys.stdout.write(serialize.dumps(data))


def _artifact(data, args) -> dict | None:
    """Write data to --out and return the run report's outputs, or print it
    and return None (no run report)."""
    if args.out:
        serialize.write_json(data, args.out)
        return {"written": args.out}
    _print(data)
    return None


# Each command takes (args, inputs) and returns (outputs, exit code); main
# prints the run report unless outputs is None.

# ---------------------------------------------------------------- game


def _cmd_game_chsh(args, inputs):
    g, _ = chsh_game(args.n)
    return _artifact(serialize.game_to_dict(g), args), EXIT_OK


def _cmd_game_check(args, inputs):
    # an invalid game (normalization, non-finite entries) is this command's
    # verdict (exit 2); a file that is not a game document is an input error
    try:
        g = _load(args.file, serialize.game_from_dict, inputs)
    except serialize.FileFormatError:
        raise
    except ValueError as exc:
        # the verdict quotes game_from_dict's message, without the file name
        return {"valid": False, "error": str(exc.__cause__)}, EXIT_VERIFY
    outputs = {
        "valid": True,
        "n_alice": g.n_alice,
        "n_bob": g.n_bob,
        "abs_sum": serialize.jfloat(np.abs(g.matrix).sum()),
    }
    return outputs, EXIT_OK


# ---------------------------------------------------------------- solve


def _cmd_solve(args, inputs):
    g = _load(args.game, serialize.game_from_dict, inputs)
    try:
        sol = solve(symmetrize(g), args.tol)
    except MaxIterations as exc:
        sol = exc.solution
    if args.dump_z:
        serialize.write_json(serialize.matrix_to_dict(sol.z), args.dump_z)
    if args.dump_y:
        serialize.write_json(serialize.y_to_dict(sol.y), args.dump_y)
    if args.out:
        serialize.write_json(serialize.report_to_dict(sol, omit=("iterations", "converged")), args.out)
    outputs = serialize.report_to_dict(sol, omit=("z", "y"))
    return outputs, EXIT_OK if sol.converged else EXIT_VERIFY


# ---------------------------------------------------------------- relations


def _cmd_relations_extract(args, inputs):
    g = _load(args.game, serialize.game_from_dict, inputs)
    y = _load(args.yfile, serialize.y_from_dict, inputs)
    try:
        rel = extract_relations(g, y, args.cutoff)
    except DualInfeasible as exc:
        return {"error": str(exc)}, EXIT_VERIFY
    return _artifact(serialize.relations_to_dict(rel), args), EXIT_OK


def _cmd_relations_chshn(args, inputs):
    form = chshn_relations_form1 if args.form == 1 else chshn_relations_form2
    return _artifact(serialize.relations_to_dict(form(args.n)), args), EXIT_OK


def _cmd_relations_residual(args, inputs):
    g = _load(args.game, serialize.game_from_dict, inputs)
    s = _load_strategy(args, inputs, lambda st: require_game_shape(g, st))
    rel = _load(
        args.relations, lambda d: serialize.relations_from_dict(d, g.n_alice, g.n_bob), inputs
    )
    lhs, rhs, ok = check_identity(g, s, rel)
    outputs = {
        "residual": serialize.jfloat(lhs),
        "sum_y": serialize.jfloat(rel.y.sum()),
        "bias": serialize.jfloat(bias(g, s)),
        "identity_gap": serialize.jfloat(lhs - rhs),
        "identity_ok": bool(ok),
    }
    return outputs, EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------- strategy


def _cmd_strategy_canonical(args, inputs):
    return _artifact(serialize.strategy_to_dict(canonical_chshn(args.n)), args), EXIT_OK


def _cmd_strategy_tsirelson(args, inputs):
    require_question_counts(args.n, args.m)  # before any file, so that the error names none
    zm = _load(args.z, serialize.matrix_from_dict, inputs)
    s = _naming(args.z, tsirelson_strategy, zm, args.n, args.m)
    return _artifact(serialize.strategy_to_dict(s), args), EXIT_OK


def _cmd_strategy_bias(args, inputs):
    g = _load(args.game, serialize.game_from_dict, inputs)
    s = _load_strategy(args, inputs, lambda st: require_game_shape(g, st))
    return {"bias": serialize.jfloat(bias(g, s))}, EXIT_OK


def _cmd_strategy_simulate(args, inputs):
    g = _load(args.game, serialize.game_from_dict, inputs)
    s = _load_strategy(args, inputs, lambda st: require_game_shape(g, st))
    mean, stderr = simulate(g, s, args.rounds, args.seed)
    outputs = {
        "empirical_bias": serialize.jfloat(mean),
        "stderr": serialize.jfloat(stderr),
        "rounds": args.rounds,
        "seed": args.seed,
    }
    return outputs, EXIT_OK


def _cmd_strategy_perturb(args, inputs):
    s = _load(args.strategy, serialize.strategy_from_dict, inputs)
    out = perturb(s, args.theta, args.seed, include_bob=args.include_bob)
    return _artifact(serialize.strategy_to_dict(out), args), EXIT_OK


# ---------------------------------------------------------------- structure


def _cmd_structure_verify(args, inputs):
    require_chshn_n(args.n)  # before any file, so that the error names none
    s = _load_strategy(args, inputs, lambda st: require_chshn_shape(st, args.n))
    rep = verify_optimal_form(s, args.n, args.tol)
    return serialize.report_to_dict(rep), EXIT_OK if rep.verdict else EXIT_VERIFY


# ---------------------------------------------------------------- intertwiner


def _cmd_intertwiner_report(args, inputs):
    require_chshn_n(args.n)  # before any file, so that the error names none
    g = _load(args.game, serialize.game_from_dict, inputs)
    s = _load_strategy(args, inputs, lambda st: require_chshn_shape(st, args.n))
    # after the strategy's check, which names a strategy of another n first
    _naming(args.game, require_chshn_game, g, args.n)
    rep = intertwiner_report(g, s, args.n)
    # T is d_A·d_B × d², so it is encoded only for the file
    outputs = serialize.report_to_dict(rep, omit=("t",))
    if args.out:
        serialize.write_json(serialize.report_to_dict(rep), args.out)
        outputs["written"] = args.out
    return outputs, EXIT_OK if rep.bounds_hold else EXIT_VERIFY


# ---------------------------------------------------------------- sweep


def _parse_list(text: str, conv, flag: str):
    try:
        return [conv(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"cannot parse {flag} list: {text!r}") from None


def _cmd_sweep(args, inputs):
    ns = _parse_list(args.n_values, int, "--n-values")
    thetas = _parse_list(args.thetas, float, "--thetas")
    seeds = _parse_list(args.seeds, int, "--seeds")
    lines = [serialize.SWEEP_HEADER]
    all_hold = True
    for n, theta, seed, rep in intertwiner_sweep(ns, thetas, seeds):
        lines.append(serialize.sweep_row(n, theta, seed, rep))
        all_hold = all_hold and rep.bounds_hold
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return None, EXIT_OK if all_hold else EXIT_VERIFY


# ---------------------------------------------------------------- wiring


@functools.cache
def build_parser() -> _Parser:
    """The xorgame parser, built once per process: parsing leaves it as it was."""
    p = _Parser(prog="xorgame", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    game = sub.add_parser("game", help="generate and validate game files")
    gsub = game.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    g_chsh = gsub.add_parser("chsh", help="emit the CHSH(n) game")
    g_chsh.add_argument("--n", type=int, required=True)
    g_chsh.add_argument("--out")
    g_chsh.set_defaults(func=_cmd_game_chsh)
    g_check = gsub.add_parser("check", help="validate a game file")
    g_check.add_argument("file")
    g_check.set_defaults(func=_cmd_game_check)

    s_solve = sub.add_parser("solve", help="solve the bias SDP for a game")
    s_solve.add_argument("game")
    s_solve.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s_solve.add_argument("--dump-z")
    s_solve.add_argument("--dump-y")
    s_solve.add_argument("--out")
    s_solve.set_defaults(func=_cmd_solve)

    rel = sub.add_parser("relations", help="relation systems and residuals")
    rsub = rel.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    r_ext = rsub.add_parser("extract", help="factor a dual point into relations")
    r_ext.add_argument("game")
    r_ext.add_argument("yfile")
    r_ext.add_argument("--cutoff", type=float, default=1e-9)
    r_ext.add_argument("--out")
    r_ext.set_defaults(func=_cmd_relations_extract)
    r_chshn = rsub.add_parser("chshn", help="closed-form CHSH(n) relations")
    r_chshn.add_argument("--n", type=int, required=True)
    r_chshn.add_argument("--form", type=int, choices=(1, 2), required=True)
    r_chshn.add_argument("--out")
    r_chshn.set_defaults(func=_cmd_relations_chshn)
    r_res = rsub.add_parser("residual", help="evaluate a strategy's relation residual")
    r_res.add_argument("game")
    r_res.add_argument("strategy")
    r_res.add_argument("relations")
    r_res.set_defaults(func=_cmd_relations_residual)

    st = sub.add_parser("strategy", help="construct and evaluate strategies")
    ssub = st.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    s_can = ssub.add_parser("canonical", help="canonical optimal CHSH(n) strategy")
    s_can.add_argument("--n", type=int, required=True)
    s_can.add_argument("--out")
    s_can.set_defaults(func=_cmd_strategy_canonical)
    s_tsi = ssub.add_parser("tsirelson", help="strategy from a correlation matrix")
    s_tsi.add_argument("--z", required=True)
    s_tsi.add_argument("--n", type=int, required=True)
    s_tsi.add_argument("--m", type=int, required=True)
    s_tsi.add_argument("--out")
    s_tsi.set_defaults(func=_cmd_strategy_tsirelson)
    s_bias = ssub.add_parser("bias", help="exact bias of a strategy")
    s_bias.add_argument("game")
    s_bias.add_argument("strategy")
    s_bias.set_defaults(func=_cmd_strategy_bias)
    s_sim = ssub.add_parser("simulate", help="Monte-Carlo bias estimate")
    s_sim.add_argument("game")
    s_sim.add_argument("strategy")
    s_sim.add_argument("--rounds", type=int, required=True)
    s_sim.add_argument("--seed", type=int, required=True)
    s_sim.set_defaults(func=_cmd_strategy_simulate)
    s_per = ssub.add_parser("perturb", help="conjugate observables by random rotations")
    s_per.add_argument("strategy")
    s_per.add_argument("--theta", type=float, required=True)
    s_per.add_argument("--seed", type=int, required=True)
    s_per.add_argument("--include-bob", action="store_true")
    s_per.add_argument("--out")
    s_per.set_defaults(func=_cmd_strategy_perturb)

    struct = sub.add_parser("structure", help="verify the optimal-strategy form")
    stsub = struct.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    st_ver = stsub.add_parser("verify", help="check Schmidt blocks and observable relations")
    st_ver.add_argument("strategy")
    st_ver.add_argument("--n", type=int, required=True)
    st_ver.add_argument("--tol", type=float, default=1e-8)
    st_ver.set_defaults(func=_cmd_structure_verify)

    itw = sub.add_parser("intertwiner", help="approximate intertwiner and bounds")
    isub = itw.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    i_rep = isub.add_parser("report", help="build T and check residual bounds")
    i_rep.add_argument("game")
    i_rep.add_argument("strategy")
    i_rep.add_argument("--n", type=int, required=True)
    i_rep.add_argument("--out")
    i_rep.set_defaults(func=_cmd_intertwiner_report)

    sweep = sub.add_parser("sweep", help="residual-vs-bound grid as CSV")
    sweep.add_argument("--n-values", default="2,3,4")
    sweep.add_argument("--thetas", default="0,0.01,0.03,0.05,0.1")
    sweep.add_argument("--seeds", default="0,1,2")
    sweep.add_argument("--out")
    sweep.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    t0 = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        outputs, code = args.func(args, inputs)
        if outputs is not None:
            _print({
                "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
                "inputs": inputs,
                "outputs": outputs,
                "wall_time": serialize.jfloat(time.perf_counter() - t0),
            })
    except (OSError, ValueError) as exc:
        # unreadable or unwritable files, and the domain errors (InvalidN,
        # NotNormalized, DimensionMismatch, ...), which are all ValueError
        # subclasses and signal bad input
        sys.stderr.write(f"xorgame: error: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
