"""Artifact formats shared by the library, the CLI and the scripts.

Every number is emitted with 12 significant digits; since 12-digit decimals
round-trip exactly through doubles, re-serializing a loaded file reproduces
it byte for byte.  Complex numbers are [re, im] pairs; matrices are
{"rows", "cols", "entries"} with row-major entries.  The residual-vs-bound
sweep is CSV with the SWEEP_COLUMNS header.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .games import XorGame, new_game
from .relations import RelationSystem
from .sdp import SdpSolution
from .strategies import Observable, Strategy
from .structure import IntertwinerReport


class FileFormatError(ValueError):
    """Input file is not valid JSON or misses required fields."""


def jfloat(x) -> float:
    """Round to 12 significant digits (idempotent on doubles)."""
    return float(f"{float(x):.12g}")


def jcomplex(z) -> list[float]:
    z = complex(z)
    return [jfloat(z.real), jfloat(z.imag)]


def _parse_complex(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise FileFormatError(f"complex entries must be [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [jcomplex(z) for z in m.reshape(-1)],
    }


def matrix_from_dict(d) -> np.ndarray:
    try:
        rows, cols, entries = int(d["rows"]), int(d["cols"]), d["entries"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"matrix object must have rows/cols/entries: {exc}")
    if len(entries) != rows * cols:
        raise FileFormatError(
            f"matrix has {len(entries)} entries, expected {rows}*{cols}"
        )
    flat = np.array([_parse_complex(v) for v in entries], dtype=complex)
    return flat.reshape(rows, cols)


def game_to_dict(g: XorGame) -> dict:
    # Game entries are stored exactly (shortest round-trip form, not 12-digit
    # rounding): the loader re-checks Σ|G| = 1 to 1e-12, and rounding the
    # CHSH(6) weight 1/60 alone drifts the sum by 2e-12.
    out = {
        "n_alice": g.n_alice,
        "n_bob": g.n_bob,
        "matrix": [float(x) for x in g.matrix.reshape(-1)],
    }
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def game_from_dict(d) -> XorGame:
    try:
        n, m, flat = int(d["n_alice"]), int(d["n_bob"]), d["matrix"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"game file must have n_alice/n_bob/matrix: {exc}")
    if len(flat) != n * m:
        raise FileFormatError(f"game matrix has {len(flat)} entries, expected {n}*{m}")
    matrix = np.array([float(x) for x in flat], dtype=float).reshape(n, m)
    labels = d.get("labels")
    return new_game(matrix, labels=tuple(labels) if labels is not None else None)


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "d_A": s.d_A,
        "d_B": s.d_B,
        "alice": [matrix_to_dict(o.matrix) for o in s.alice],
        "bob": [matrix_to_dict(o.matrix) for o in s.bob],
        "state": [jcomplex(z) for z in s.state],
    }


def strategy_from_dict(d) -> Strategy:
    try:
        d_a, d_b = int(d["d_A"]), int(d["d_B"])
        alice, bob, state = d["alice"], d["bob"], d["state"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"strategy file must have d_A/d_B/alice/bob/state: {exc}")
    return Strategy(
        d_a,
        d_b,
        tuple(Observable(matrix_from_dict(m)) for m in alice),
        tuple(Observable(matrix_from_dict(m)) for m in bob),
        np.array([_parse_complex(v) for v in state], dtype=complex),
    )


def solution_to_dict(sol: SdpSolution) -> dict:
    return {
        "primal_value": jfloat(sol.primal_value),
        "dual_value": jfloat(sol.dual_value),
        "gap": jfloat(sol.gap),
        "y": [jfloat(x) for x in sol.y],
        "z": matrix_to_dict(sol.z),
    }


def relations_to_dict(rel: RelationSystem) -> dict:
    return {
        "y": [jfloat(x) for x in rel.y],
        "pairs": [
            {"u": [jfloat(x) for x in u], "v": [jfloat(x) for x in v]}
            for u, v in rel.pairs
        ],
    }


def relations_from_dict(d, n_alice: int, n_bob: int) -> RelationSystem:
    try:
        y = [float(x) for x in d["y"]]
        pairs = [
            (
                np.array([float(x) for x in p["u"]], dtype=float),
                np.array([float(x) for x in p["v"]], dtype=float),
            )
            for p in d["pairs"]
        ]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"relations file must have y/pairs: {exc}")
    return RelationSystem(np.array(y), tuple(pairs), n_alice, n_bob)


def y_to_dict(y) -> dict:
    return {"y": [jfloat(x) for x in np.asarray(y, dtype=float).reshape(-1)]}


def y_from_dict(d) -> np.ndarray:
    try:
        return np.array([float(x) for x in d["y"]], dtype=float)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"y file must have a 'y' list: {exc}")


def report_to_dict(rep, omit=()) -> dict:
    """A report dataclass as a JSON object, fields in declaration order and
    those named in omit left out: floats at 12 significant digits, float
    tuples as lists, matrices through matrix_to_dict, ints and bools as is."""
    return {
        f.name: _report_field(getattr(rep, f.name))
        for f in dataclasses.fields(rep)
        if f.name not in omit
    }


def _report_field(v):
    if isinstance(v, np.ndarray):
        return matrix_to_dict(v)
    if isinstance(v, tuple):
        return [jfloat(x) for x in v]
    if isinstance(v, int):  # bool is an int
        return v
    return jfloat(v)


SWEEP_COLUMNS = (
    "n",
    "theta",
    "seed",
    "epsilon",
    "max_alice_residual",
    "alice_bound",
    "max_bob_residual",
    "bob_bound",
)
SWEEP_HEADER = ",".join(SWEEP_COLUMNS) + "\n"


def sweep_row(n: int, theta: float, seed: int, rep: IntertwinerReport) -> str:
    """One CSV line of the sweep in SWEEP_COLUMNS order, floats at 12 significant digits."""
    floats = (rep.epsilon, max(rep.alice_residuals), rep.alice_bound,
              max(rep.bob_residuals), rep.bob_bound)
    return f"{n},{theta:.12g},{seed}," + ",".join(f"{x:.12g}" for x in floats) + "\n"


def dumps(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def write_json(data, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(data))


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})")


def sha256_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
