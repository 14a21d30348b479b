"""Command-line front end.

One binary, seven subcommand families: game, solve, relations, strategy,
structure, intertwiner, sweep.  Artifact-producing commands print the
artifact JSON to standard output, or write it to --out and print a run
report instead; checking commands always print a run report.  Exit codes:
0 success, 2 verification failure, 1 usage or input error.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import serialize
from .games import chsh_game, symmetrize
from .relations import (
    DualInfeasible,
    check_identity,
    chshn_relations_form1,
    chshn_relations_form2,
    extract_relations,
)
from .sdp import DEFAULT_TOL, MaxIterations, solve
from .strategies import bias, canonical_chshn, perturb, simulate, tsirelson_strategy
from .structure import intertwiner_report, intertwiner_sweep, verify_optimal_form

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this artifact reserves 2 for
    verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class InputError(Exception):
    """Unreadable or malformed input; mapped to exit 1."""


def _read(path: str):
    try:
        return serialize.read_json(path)
    except (OSError, serialize.FileFormatError) as exc:
        raise InputError(str(exc))


def _digest(path: str) -> str:
    try:
        return serialize.sha256_digest(path)
    except OSError as exc:
        raise InputError(str(exc))


def _load_game(path: str):
    try:
        return serialize.game_from_dict(_read(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _load_strategy(path: str):
    try:
        return serialize.strategy_from_dict(_read(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _print(data) -> None:
    sys.stdout.write(serialize.dumps(data))


def _report(command: str, inputs: dict, outputs: dict, t0: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time": serialize.jfloat(time.perf_counter() - t0),
    }


def _emit_artifact(data, args, command: str, inputs: dict, t0: float) -> None:
    if getattr(args, "out", None):
        serialize.write_json(data, args.out)
        _print(_report(command, inputs, {"written": args.out}, t0))
    else:
        _print(data)


# ---------------------------------------------------------------- game


def _cmd_game_chsh(args) -> int:
    t0 = time.perf_counter()
    g, _ = chsh_game(args.n)
    _emit_artifact(serialize.game_to_dict(g), args, "game chsh", {}, t0)
    return EXIT_OK


def _cmd_game_check(args) -> int:
    t0 = time.perf_counter()
    raw = _read(args.file)
    inputs = {args.file: _digest(args.file)}
    try:
        g = serialize.game_from_dict(raw)
    except ValueError as exc:
        _print(_report("game check", inputs, {"valid": False, "error": str(exc)}, t0))
        return EXIT_VERIFY
    outputs = {
        "valid": True,
        "n_alice": g.n_alice,
        "n_bob": g.n_bob,
        "abs_sum": serialize.jfloat(np.abs(g.matrix).sum()),
    }
    _print(_report("game check", inputs, outputs, t0))
    return EXIT_OK


# ---------------------------------------------------------------- solve


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    inputs = {args.game: _digest(args.game)}
    try:
        sol = solve(symmetrize(g), args.tol)
    except MaxIterations as exc:
        sol = exc.solution
    except ValueError as exc:
        raise InputError(str(exc))
    if args.dump_z:
        serialize.write_json(serialize.matrix_to_dict(sol.z), args.dump_z)
    if args.dump_y:
        serialize.write_json(serialize.y_to_dict(sol.y), args.dump_y)
    if args.out:
        serialize.write_json(serialize.solution_to_dict(sol), args.out)
    outputs = {
        "primal_value": serialize.jfloat(sol.primal_value),
        "dual_value": serialize.jfloat(sol.dual_value),
        "gap": serialize.jfloat(sol.gap),
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    _print(_report("solve", inputs, outputs, t0))
    return EXIT_OK if sol.converged else EXIT_VERIFY


# ---------------------------------------------------------------- relations


def _cmd_relations_extract(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    y = serialize.y_from_dict(_read(args.yfile))
    inputs = {args.game: _digest(args.game), args.yfile: _digest(args.yfile)}
    try:
        rel = extract_relations(g, y, args.cutoff)
    except DualInfeasible as exc:
        _print(_report("relations extract", inputs, {"error": str(exc)}, t0))
        return EXIT_VERIFY
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_artifact(serialize.relations_to_dict(rel), args, "relations extract", inputs, t0)
    return EXIT_OK


def _cmd_relations_chshn(args) -> int:
    t0 = time.perf_counter()
    form = chshn_relations_form1 if args.form == 1 else chshn_relations_form2
    try:
        rel = form(args.n)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_artifact(serialize.relations_to_dict(rel), args, "relations chshn", {}, t0)
    return EXIT_OK


def _cmd_relations_residual(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    s = _load_strategy(args.strategy)
    rel = serialize.relations_from_dict(_read(args.relations), g.n_alice, g.n_bob)
    inputs = {
        args.game: _digest(args.game),
        args.strategy: _digest(args.strategy),
        args.relations: _digest(args.relations),
    }
    try:
        lhs, rhs, ok = check_identity(g, s, rel)
    except ValueError as exc:
        raise InputError(str(exc))
    outputs = {
        "residual": serialize.jfloat(lhs),
        "sum_y": serialize.jfloat(rel.y.sum()),
        "bias": serialize.jfloat(bias(g, s)),
        "identity_gap": serialize.jfloat(lhs - rhs),
        "identity_ok": bool(ok),
    }
    _print(_report("relations residual", inputs, outputs, t0))
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------- strategy


def _cmd_strategy_canonical(args) -> int:
    t0 = time.perf_counter()
    try:
        s = canonical_chshn(args.n)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_artifact(serialize.strategy_to_dict(s), args, "strategy canonical", {}, t0)
    return EXIT_OK


def _cmd_strategy_tsirelson(args) -> int:
    t0 = time.perf_counter()
    zm = serialize.matrix_from_dict(_read(args.z))
    inputs = {args.z: _digest(args.z)}
    if np.abs(zm.imag).max() > 1e-9:
        raise InputError(f"{args.z}: correlation matrix must be real")
    try:
        s = tsirelson_strategy(zm.real, args.n, args.m)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_artifact(serialize.strategy_to_dict(s), args, "strategy tsirelson", inputs, t0)
    return EXIT_OK


def _cmd_strategy_bias(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    s = _load_strategy(args.strategy)
    inputs = {args.game: _digest(args.game), args.strategy: _digest(args.strategy)}
    try:
        b = bias(g, s)
    except ValueError as exc:
        raise InputError(str(exc))
    _print(_report("strategy bias", inputs, {"bias": serialize.jfloat(b)}, t0))
    return EXIT_OK


def _cmd_strategy_simulate(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    s = _load_strategy(args.strategy)
    inputs = {args.game: _digest(args.game), args.strategy: _digest(args.strategy)}
    try:
        mean, stderr = simulate(g, s, args.rounds, args.seed)
    except ValueError as exc:
        raise InputError(str(exc))
    outputs = {
        "empirical_bias": serialize.jfloat(mean),
        "stderr": serialize.jfloat(stderr),
        "rounds": args.rounds,
        "seed": args.seed,
    }
    _print(_report("strategy simulate", inputs, outputs, t0))
    return EXIT_OK


def _cmd_strategy_perturb(args) -> int:
    t0 = time.perf_counter()
    s = _load_strategy(args.strategy)
    inputs = {args.strategy: _digest(args.strategy)}
    try:
        out = perturb(s, args.theta, args.seed, include_bob=args.include_bob)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit_artifact(serialize.strategy_to_dict(out), args, "strategy perturb", inputs, t0)
    return EXIT_OK


# ---------------------------------------------------------------- structure


def _cmd_structure_verify(args) -> int:
    t0 = time.perf_counter()
    s = _load_strategy(args.strategy)
    inputs = {args.strategy: _digest(args.strategy)}
    try:
        rep = verify_optimal_form(s, args.n, args.tol)
    except ValueError as exc:
        raise InputError(str(exc))
    outputs = {
        "schmidt_rank": rep.schmidt_rank,
        "block_size": rep.block_size,
        "rank_divisible": rep.rank_divisible,
        "blocks_equal": rep.blocks_equal,
        "blocks_max_deviation": serialize.jfloat(rep.blocks_max_deviation),
        "support_invariant_A": serialize.jfloat(rep.support_invariant_A),
        "support_invariant_B": serialize.jfloat(rep.support_invariant_B),
        "anticommute_on_support": serialize.jfloat(rep.anticommute_on_support),
        "b_block_relation": serialize.jfloat(rep.b_block_relation),
        "verdict": rep.verdict,
    }
    _print(_report("structure verify", inputs, outputs, t0))
    return EXIT_OK if rep.verdict else EXIT_VERIFY


# ---------------------------------------------------------------- intertwiner


def _cmd_intertwiner_report(args) -> int:
    t0 = time.perf_counter()
    g = _load_game(args.game)
    s = _load_strategy(args.strategy)
    inputs = {args.game: _digest(args.game), args.strategy: _digest(args.strategy)}
    try:
        rep = intertwiner_report(g, s, args.n)
    except ValueError as exc:
        raise InputError(str(exc))
    full = serialize.intertwiner_report_to_dict(rep)
    if args.out:
        serialize.write_json(full, args.out)
    outputs = {k: v for k, v in full.items() if k != "t"}
    if args.out:
        outputs["written"] = args.out
    _print(_report("intertwiner report", inputs, outputs, t0))
    return EXIT_OK if rep.bounds_hold else EXIT_VERIFY


# ---------------------------------------------------------------- sweep


def _parse_list(text: str, conv, flag: str):
    try:
        return [conv(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise InputError(f"cannot parse {flag} list: {text!r}")


def _cmd_sweep(args) -> int:
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
    return EXIT_OK if all_hold else EXIT_VERIFY


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
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
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"xorgame: error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        # domain errors (InvalidN, NotNormalized, DimensionMismatch, ...)
        # are all ValueError subclasses and signal bad input
        sys.stderr.write(f"xorgame: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
