"""Artifact formats shared by the library, the CLI and the scripts.

Every number is emitted with 12 significant digits; since 12-digit decimals
round-trip exactly through doubles, re-serializing a loaded file reproduces
it byte for byte.  Complex numbers are [re, im] pairs; matrices are
{"rows", "cols", "entries"} with row-major entries.  The residual-vs-bound
sweep is CSV with the SWEEP_COLUMNS header.

`dumps` (and `write_json`) is the one JSON writer: it gives exactly the
bytes of `json.dumps(data, indent=2) + "\\n"`.  The `*_to_dict` encoders keep
matrix entries and states as (N, 2) float arrays of [re, im] rows, which
the writer emits as the lists json.dumps would write for their `jfloat`
values, from '%.12g' template fills with no per-pair Python objects.  The
readers take entries with one `np.array` conversion and a shape check, and
raise FileFormatError on any field of the wrong type or shape.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .games import XorGame, new_game
from .relations import RelationSystem
from .sdp import SdpSolution
from .strategies import Observable, Strategy
from .structure import IntertwinerReport


class FileFormatError(ValueError):
    """Input file is not valid JSON, misses required fields or has a field
    of the wrong type or shape."""


def jfloat(x) -> float:
    """Round to 12 significant digits (idempotent on doubles)."""
    return float(f"{float(x):.12g}")


def _pair_rows(z) -> np.ndarray:
    """Complex values, flattened row-major, as a fresh (N, 2) float array of [re, im] rows."""
    return np.array(z, dtype=complex).reshape(-1).view(float).reshape(-1, 2)


def _floats(values, what: str) -> np.ndarray:
    """Nested lists of numbers as a float array, converting each number as
    float() does; FileFormatError for anything float() refuses, null included."""
    try:
        a = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{what} must hold numbers: {exc}") from None
    # numpy turns null into NaN, which float(None) refuses
    if np.isnan(a).any() and _holds_none(values):
        raise FileFormatError(f"{what} must hold numbers, got null")
    return a


def _holds_none(v) -> bool:
    return v is None or (isinstance(v, (list, tuple)) and any(map(_holds_none, v)))


def _complex_vector(pairs, what: str) -> np.ndarray:
    """A list of [re, im] pairs as a complex vector, bit for bit."""
    a = _floats(pairs, what)
    if a.shape == (0,):
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise FileFormatError(f"{what} must be a list of [re, im] pairs, got shape {a.shape}")
    return a.view(complex).reshape(-1)


def matrix_to_dict(m: np.ndarray) -> dict:
    """m as a matrix object whose "entries" is an (N, 2) float ndarray of
    [re, im] rows, not a JSON list: the result (and any dict holding it, as
    from strategy_to_dict, solution_to_dict or report_to_dict) is input for
    dumps/write_json only; json.dumps raises TypeError on it and == on two
    such dicts is ambiguous."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": _pair_rows(m)}


def matrix_from_dict(d) -> np.ndarray:
    try:
        rows, cols, entries = int(d["rows"]), int(d["cols"]), d["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"matrix object must have rows/cols/entries: {exc}")
    flat = _complex_vector(entries, "matrix entries")
    if rows < 0 or cols < 0 or flat.size != rows * cols:
        raise FileFormatError(f"matrix has {flat.size} entries, expected {rows}*{cols}")
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
        labels = d.get("labels")
        labels = tuple(labels) if labels is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"game file must have n_alice/n_bob/matrix: {exc}")
    matrix = _floats(flat, "game matrix")
    if matrix.shape != (n * m,):
        raise FileFormatError(f"game matrix must be a list of {n}*{m} numbers, got shape {matrix.shape}")
    return new_game(matrix.reshape(n, m), labels=labels)


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "d_A": s.d_A,
        "d_B": s.d_B,
        "alice": [matrix_to_dict(o.matrix) for o in s.alice],
        "bob": [matrix_to_dict(o.matrix) for o in s.bob],
        "state": _pair_rows(s.state),
    }


def strategy_from_dict(d) -> Strategy:
    try:
        d_a, d_b = int(d["d_A"]), int(d["d_B"])
        alice, bob, state = list(d["alice"]), list(d["bob"]), d["state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"strategy file must have d_A/d_B/alice/bob/state: {exc}")
    return Strategy(
        d_a,
        d_b,
        tuple(Observable(matrix_from_dict(m)) for m in alice),
        tuple(Observable(matrix_from_dict(m)) for m in bob),
        _complex_vector(state, "strategy state"),
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
    """data as JSON text: exactly json.dumps(data, indent=2) + "\\n".

    data holds JSON values (dict keys are strings) and 2-D float arrays; an
    array is written as json.dumps writes the list of its rows with every
    value passed through jfloat.
    """
    return "".join(_chunks(data))


def write_json(data, path: str) -> None:
    """Write dumps(data) to path."""
    chunks = _chunks(data)
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _chunks(data) -> list[str]:
    out: list[str] = []
    _encode(data, "\n", out)
    out.append("\n")
    return out


def _encode(v, nl: str, out: list) -> None:
    """Append v to out as json.dumps(indent=2) writes it at the depth whose
    line break and indentation is nl."""
    if isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_floatstr(v))
    elif isinstance(v, (list, tuple)):
        inner = nl + "  "
        if not v:
            out.append("[]")
        else:
            sep = "[" + inner
            for x in v:
                out.append(sep)
                _encode(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(v, dict):
        inner = nl + "  "
        if not v:
            out.append("{}")
        else:
            sep = "{" + inner
            for k, x in v.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                out += (sep, encode_basestring_ascii(k), ": ")
                _encode(x, inner, out)
                sep = "," + inner
            out.append(nl + "}")
    elif isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype == float:
        if v.size:
            _rows(v, nl, out)
        else:
            _encode(v.tolist(), nl, out)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _floatstr(x: float) -> str:
    """x as json.dumps spells a float."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# Rows per template fill: bounds the writer's temporaries to about a MB.
ROWS_PER_FILL = 4096


def _rows(a: np.ndarray, nl: str, out: list) -> None:
    """Append the 2-D float array a to out as json.dumps(indent=2) writes
    the list of its rows with every value passed through jfloat, at the
    depth whose line break and indentation is nl."""
    inner = nl + "  "
    out.append("[" + inner)
    for start in range(0, a.shape[0], ROWS_PER_FILL):
        if start:
            out.append("," + inner)
        out.append(_fill_rows(a[start:start + ROWS_PER_FILL], inner))
    out.append(nl + "]")


def _fill_rows(a: np.ndarray, inner: str) -> str:
    """The rows of a, each written as a list of jfloat values at the depth
    whose line break and indentation is inner, separated by commas.

    A template with one '%.12g' slot per value is filled in one formatting
    call.  For a normal double whose 12-digit rounding is neither an integer
    (which repr ends in '.0') nor of magnitude in [1e12, 1e16) (which repr
    writes positionally), those digits are exactly repr(jfloat(v)): both are
    the one decimal of at most 12 significant digits that names jfloat(v).
    The slots of the values that may fall outside that are replaced by their
    spelling before the fill: zeros and subnormals (below 1e-307), NaN,
    infinities, and values within 2e-11 relative of an integer.  A 12-digit
    rounding moves a value by at most 5e-12 relative, so the last class holds
    every value that rounds to an integer, every magnitude above 2.5e10
    included.
    """
    item = inner + "  "
    slot = "%.12g"
    rows, cols = a.shape
    row = "[" + item + ("," + item).join([slot] * cols) + inner + "]"
    template = ("," + inner).join(itertools.repeat(row, rows))
    x = a.reshape(-1)
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):
        direct = (mag >= 1e-307) & (np.abs(x - np.rint(x)) > 2e-11 * mag)
    respell = np.flatnonzero(~direct)
    if respell.size:
        offsets = 1 + len(item) + np.arange(cols) * (len(slot) + 1 + len(item))
        starts = (respell // cols) * (len(row) + 1 + len(inner)) + offsets[respell % cols]
        ends = [0] + (starts + len(slot)).tolist()
        pieces = [template[e:s] for e, s in zip(ends, starts.tolist())]
        # one spelling per distinct bit pattern (0.0 and -0.0 differ)
        uniq, inverse = np.unique(x[respell].view(np.uint64), return_inverse=True)
        spelling = np.array([_floatstr(jfloat(v)) for v in uniq.view(float).tolist()], dtype=object)
        literals = spelling[inverse].tolist()
        template = "".join(itertools.chain.from_iterable(zip(pieces, literals))) + template[ends[-1]:]
    return template % tuple(x[direct].tolist())


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
