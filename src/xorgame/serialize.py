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
values; json.dumps writes the rest of the document.  The writer spells
every float array of a document together with numpy, in blocks of rows:
each value's digits, sign and exponent come from lookup tables into
fixed-width records of ASCII bytes, and one pass that drops the NUL
padding gives the text.  Values the tables do not cover are
spelled one by one, once per distinct bit pattern.  The readers take each
field through _field, _size, _numbers or _pairs, and raise FileFormatError
on any field that is missing or of the wrong type, size or shape, and on a
file that is not UTF-8 JSON.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .games import XorGame, new_game
from .relations import RelationSystem
from .strategies import Strategy
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
    """Nested lists of JSON numbers as a float array, each number as float()
    reads it; FileFormatError naming the JSON kind of anything else, or an
    integer too large for a double.  numpy upcasts a boolean among numbers,
    so [1, true] reads as [1.0, 1.0]."""
    try:
        a = np.array(values, order="C")
    except ValueError as exc:  # ragged lists
        raise FileFormatError(f"{what} must hold numbers: {exc}") from None
    if a.dtype.kind in "iuf":
        return a.astype(float, copy=False)
    kinds = set(map(type, a.reshape(-1).tolist()))
    for t, name in ((str, "a string"), (type(None), "null"), (dict, "an object"), (bool, "a boolean")):
        if t in kinds:
            raise FileFormatError(f"{what} must hold numbers, got {name}")
    try:  # numpy gives an int beyond 64 bits the object dtype; read each as float() does
        return np.array(values, dtype=float)
    except OverflowError:
        raise FileFormatError(f"{what} must hold numbers, got an integer beyond the double range") from None


def _field(d, key: str, what: str, kind=object):
    """d[key]; FileFormatError unless d is a JSON object that holds key
    with a value of type kind."""
    if not isinstance(d, dict) or key not in d:
        raise FileFormatError(f"{what} must be a JSON object with a {key!r} field")
    v = d[key]
    if not isinstance(v, kind):
        raise FileFormatError(f"{what} {key} must be a {kind.__name__}, got {type(v).__name__}")
    return v


def _size(d, key: str, what: str, floor: int) -> int:
    """d[key] if it is a JSON integer >= floor, not a bool, a fraction or a string."""
    v = _field(d, key, what)
    if isinstance(v, bool) or not isinstance(v, int) or v < floor:
        raise FileFormatError(f"{what} {key} must be an integer >= {floor}, got {v!r}")
    return v


def _numbers(values, what: str, length: int | None = None) -> np.ndarray:
    """A list of numbers, of the given length if any, as a 1-d float array."""
    a = _floats(values, what)
    if a.ndim != 1:
        raise FileFormatError(f"{what} must be a list of numbers, got shape {a.shape}")
    if length is not None and len(a) != length:
        raise FileFormatError(f"{what} has length {len(a)}, not {length}")
    return a


def _pairs(values, what: str, length: int | None = None) -> np.ndarray:
    """A list of [re, im] pairs, of the given length if any, as a complex
    vector, bit for bit."""
    a = _floats(values, what)
    if a.shape != (0,) and a.shape[1:] != (2,):
        raise FileFormatError(f"{what} must be a list of [re, im] pairs, got shape {a.shape}")
    z = a.reshape(-1).view(complex)
    if length is not None and len(z) != length:
        raise FileFormatError(f"{what} has length {len(z)}, not {length}")
    return z


def matrix_to_dict(m: np.ndarray) -> dict:
    """m as a matrix object whose "entries" is an (N, 2) float ndarray of
    [re, im] rows, not a JSON list: the result (and any dict holding it, as
    from strategy_to_dict or report_to_dict) is input for
    dumps/write_json only; json.dumps raises TypeError on it and == on two
    such dicts is ambiguous."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": _pair_rows(m)}


def matrix_from_dict(d) -> np.ndarray:
    rows, cols = _size(d, "rows", "matrix", 0), _size(d, "cols", "matrix", 0)
    entries = _pairs(_field(d, "entries", "matrix"), "matrix entry list", rows * cols)
    return entries.reshape(rows, cols)


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
    n, m = _size(d, "n_alice", "game", 1), _size(d, "n_bob", "game", 1)
    matrix = _numbers(_field(d, "matrix", "game"), "game matrix", n * m)
    labels = d.get("labels")
    if labels is not None and not (isinstance(labels, list) and list(map(type, labels)) == [str] * m):
        raise FileFormatError(f"game labels must be a list of n_bob = {m} strings")
    return new_game(matrix.reshape(n, m), labels=None if labels is None else tuple(labels))


def strategy_to_dict(s: Strategy) -> dict:
    return {
        "d_A": s.d_A,
        "d_B": s.d_B,
        "alice": [matrix_to_dict(o) for o in s.alice],
        "bob": [matrix_to_dict(o) for o in s.bob],
        "state": _pair_rows(s.state),
    }


def strategy_from_dict(d) -> Strategy:
    d_a, d_b = _size(d, "d_A", "strategy", 1), _size(d, "d_B", "strategy", 1)
    return Strategy(
        _observable_stack(d, "alice", d_a),
        _observable_stack(d, "bob", d_b),
        _pairs(_field(d, "state", "strategy"), "strategy state"),
    )


def _observable_stack(doc, name: str, d: int) -> np.ndarray:
    """The list of matrix objects doc[name] as one (k, d, d) stack;
    FileFormatError unless each is d × d."""
    arrays = [matrix_from_dict(m) for m in _field(doc, name, "strategy", list)]
    for k, a in enumerate(arrays):
        if a.shape != (d, d):
            raise FileFormatError(f"{name} observable {k} is {a.shape[0]}x{a.shape[1]}, not {d}x{d}")
    return np.array(arrays, dtype=complex).reshape(len(arrays), d, d)


def relations_to_dict(rel: RelationSystem) -> dict:
    return {
        "y": [jfloat(x) for x in rel.y],
        "pairs": [
            {"u": [jfloat(x) for x in u], "v": [jfloat(x) for x in v]}
            for u, v in zip(rel.u, rel.v)
        ],
    }


def relations_from_dict(d, n_alice: int, n_bob: int) -> RelationSystem:
    """Relations for an n_alice × n_bob game; FileFormatError unless every
    pair has a u of length n_alice and a v of length n_bob."""
    y = _numbers(_field(d, "y", "relations"), "relations y")
    pairs = _field(d, "pairs", "relations", list)
    u, v = np.empty((len(pairs), n_alice)), np.empty((len(pairs), n_bob))
    for k, p in enumerate(pairs):
        what = f"relation pair {k}"
        u[k] = _numbers(_field(p, "u", what), f"{what}: u", n_alice)
        v[k] = _numbers(_field(p, "v", what), f"{what}: v", n_bob)
    return RelationSystem(y, u, v)


def y_to_dict(y) -> dict:
    return {"y": [jfloat(x) for x in np.asarray(y, dtype=float).reshape(-1)]}


def y_from_dict(d) -> np.ndarray:
    y = _numbers(_field(d, "y", "y file"), "y")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite entries")
    return y


def report_to_dict(rep, omit=()) -> dict:
    """A report dataclass as a JSON object, fields in declaration order and
    those named in omit left out: floats at 12 significant digits, float
    tuples and vectors as lists, matrices through matrix_to_dict, ints and
    bools as is."""
    return {
        f.name: _report_field(getattr(rep, f.name))
        for f in dataclasses.fields(rep)
        if f.name not in omit
    }


def _report_field(v):
    if isinstance(v, np.ndarray) and v.ndim == 2:
        return matrix_to_dict(v)
    if isinstance(v, (tuple, np.ndarray)):
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

    data holds values json.dumps writes and 2-D float arrays; an array is
    written as json.dumps writes the list of its rows with every value
    passed through jfloat.
    """
    return b"".join(_chunks(data)).decode("ascii")


def write_json(data, path: str) -> None:
    """Write dumps(data) to path."""
    chunks = _chunks(data)
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _chunks(data) -> list[bytes]:
    """dumps(data) as ASCII byte strings.  json.dumps writes the document
    with a marker in place of each non-empty 2-D float array; the marker
    becomes the array's brackets, and _spell_arrays writes the rows between
    them, indented one level deeper than the line the marker was on."""
    found: list[np.ndarray] = []

    def hole(v):
        if isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype == float:
            if not v.size:
                return v.tolist()
            found.append(v)
            return _HOLE
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    parts = json.dumps(data, indent=2, default=hole).split(_HOLE_JSON)
    if len(parts) != len(found) + 1:
        raise ValueError(f"a string in the document spells the array marker {_HOLE_JSON}")
    arrays, texts, close = [], [], ""
    for a, part in zip(found, parts):
        line = part.rsplit("\n", 1)[-1]
        nl = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        arrays.append((a, nl + "  "))
        texts.append(close + part + "[" + nl + "  ")
        close = nl + "]"
    texts.append(close + parts[-1] + "\n")
    chunks = [texts[0].encode()]
    for rows, text in zip(_spell_arrays(arrays), texts[1:]):
        chunks += rows
        chunks.append(text.encode())
    return chunks


# Stands in for an array in json.dumps's text.  A string of the document
# whose spelling holds _HOLE_JSON adds a split that no array fills, and
# _chunks raises ValueError.
_HOLE = "\0float array\0"
_HOLE_JSON = json.dumps(_HOLE)


# Rows per spelling block: bounds the writer's temporaries to a few MB.
ROWS_PER_FILL = 4096


def _spell_arrays(arrays) -> list[list[bytes]]:
    """For each (array, inner) of arrays, its rows as json.dumps(indent=2)
    writes them, each a list of jfloat values at the depth whose line break
    and indentation is inner, separated by commas: the text between the
    brackets of the list of rows, as byte strings.

    The arrays that share a row layout (indentation and column count) are
    spelled together, ROWS_PER_FILL rows at a time, so a document of many
    small matrices costs a few numpy passes, not a few per matrix."""
    spelled: list[list[bytes]] = [[] for _ in arrays]
    layouts: dict[tuple[str, int], list[int]] = {}
    for i, (a, inner) in enumerate(arrays):
        layouts.setdefault((inner, a.shape[1]), []).append(i)
    for (inner, cols), ids in layouts.items():
        segments = []  # (array index, first row, end row) in the block
        room = ROWS_PER_FILL
        for i in ids:
            rows, r0 = arrays[i][0].shape[0], 0
            while r0 < rows:
                r1 = min(rows, r0 + room)
                segments.append((i, r0, r1))
                room -= r1 - r0
                r0 = r1
                if not room:
                    _spell_block(arrays, segments, inner, cols, spelled)
                    segments, room = [], ROWS_PER_FILL
        if segments:
            _spell_block(arrays, segments, inner, cols, spelled)
    return spelled


def _spell_block(arrays, segments, inner: str, cols: int, spelled) -> None:
    """Append to spelled[i] the text of rows r0:r1 of array i, for each
    segment (i, r0, r1), each row followed by "," + inner unless it is the
    array's last.

    Every row is laid out as one record of ASCII bytes padded with NULs:
    the row's constant text and _spell's value fields.  One compress that
    drops the NULs gives the text."""
    parts = [arrays[i][0][r0:r1] for i, r0, r1 in segments]
    x = np.concatenate(parts) if len(parts) > 1 else parts[0]
    item = inner + "  "
    slot = "\0" * _TEXT
    row = ("[" + item + ("," + item).join([slot] * cols) + inner + "]," + inner).encode()
    tail = len(inner) + 1  # the "," + inner that follows a row
    rec = np.empty((x.shape[0], len(row)), np.uint8)
    rec[:] = np.frombuffer(row, np.uint8)
    values = _spell(x.reshape(-1)).view(np.uint8).reshape(x.shape[0], cols, 8 * _FIELD)
    for j in range(cols):
        at = len(item) + 1 + j * (_TEXT + len(item) + 1)
        rec[:, at:at + _TEXT] = values[:, j, :_TEXT]
    ends = np.cumsum([r1 - r0 for _, r0, r1 in segments])
    last = [end - 1 for (i, _, r1), end in zip(segments, ends) if r1 == arrays[i][0].shape[0]]
    rec[last, len(row) - tail:] = 0
    text = rec.tobytes().translate(None, b"\0")
    b0 = 0
    for (i, _, _), start, end in zip(segments, [0, *ends], ends):
        b1 = b0 + np.count_nonzero(rec[start:end])
        spelled[i].append(text[b0:b1])
        b0 = b1


# _spell writes each value into a field of four 8-byte words of ASCII
# padded with NULs: the sign and the "0." and zeros of a fixed-point
# spelling (or all of an integer's), the 12 mantissa digits as four 4-byte
# groups of three with the decimal point of d.ddde-XX after the first, and
# the "e-XX".  Only the first _TEXT bytes can hold text: no spelling is
# longer than repr's longest, 24 characters.
_FIELD = 4
_TEXT = 28
_E_MIN, _E_MAX = -99, -1
_POW10 = np.array([float(10**(11 + k)) for k in range(1 - _E_MIN)])  # 10^(11−e) at -e
_INT_MAX = 999


def _words(texts, width: int) -> np.ndarray:
    """The texts as NUL-padded words of width bytes."""
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts).encode(), f"u{width}")


def _digit_words() -> np.ndarray:
    """Word 2000·p + 1000·z + g is the 3 digits of g, with a decimal point
    after the first when p, and when z with its trailing zeros and then a
    trailing point dropped."""
    plain = [f"{g:03d}" for g in range(1000)]
    pointed = [t[0] + "." + t[1:] for t in plain]
    return _words([t.rstrip("0").rstrip(".") if z else t
                   for group in (plain, pointed) for z in (0, 1) for t in group], 4)


def _decimal_words() -> tuple[np.ndarray, np.ndarray]:
    """The first and last words of a decimal's field with exponent e in
    [_E_MIN, _E_MAX + 1] and sign bit neg, at 2·(e − _E_MIN) + neg (e =
    _E_MAX + 1 only marks a value that rounds up to 1)."""
    prefixes, suffixes = [], []
    for e in range(_E_MIN, _E_MAX + 2):
        for sign in ("", "-"):
            prefixes.append(sign if e < -4 else sign + "0." + "0" * (-e - 1))
            suffixes.append(f"e-{-e:02d}" if e < -4 else "")
    return _words(prefixes, 8), _words(suffixes, 8)


_DIGITS = _digit_words()
_PREFIX, _SUFFIX = _decimal_words()
# 1 + k + (_INT_MAX + 1)·neg: the integer ±k, all its field but NULs; 0: none
_INTEGERS = _words([""] + [f"{sign}{k}.0" for sign in ("", "-") for k in range(_INT_MAX + 1)], 8)


def _spell(x: np.ndarray) -> np.ndarray:
    """The floats x as json.dumps spells their jfloat values: a (len(x),
    _FIELD) array of words of ASCII padded with NULs.

    Integers of at most three digits, zeros of either sign included, are
    exact doubles that jfloat keeps, spelled from _INTEGERS; the other
    values go to _spell_decimals.
    """
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):
        integer = (mag <= _INT_MAX) & (np.rint(mag) == mag)
    out = np.zeros((len(x), _FIELD), np.uint64)
    # k = 0, no text, for the rest (fmin takes NaN to _INT_MAX)
    k = (np.fmin(mag, _INT_MAX) + 1 + (_INT_MAX + 1) * np.signbit(x)) * integer
    out[:, 0] = _INTEGERS[k.astype(np.intp)]
    rest = np.flatnonzero(~integer)
    if rest.size:
        out[rest] = _spell_decimals(x[rest])
    return out


def _spell_decimals(x: np.ndarray) -> np.ndarray:
    """_spell for values other than integers of at most three digits.

    A value with e = ⌊log10|x|⌋ in [-99, -1] has s = |x|·10^(11−e) within
    2.3e-4 of its exact value (two roundings, the power's and the
    product's), so away from the tie band |frac(s) − ½| < 1e-3, m = rint(s)
    is the correctly rounded 12-digit mantissa that '%.12g' and
    repr(jfloat(x)) both write, without trailing zeros.  m is cut into four
    3-digit groups and each is looked up in _DIGITS.  Every other value
    (NaN, infinities, larger integers, values of magnitude 1 or more,
    3-digit exponents, the tie band, s outside [1e11, 1e12] from a log10
    off by one, and values that round up to 1) is spelled by
    json.dumps(jfloat(v)), once per distinct bit pattern.
    """
    mag = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(mag))
        inside = np.fmin(np.fmax(e, _E_MIN), _E_MAX)  # NaN goes to _E_MIN
        s = mag * _POW10[-inside.astype(np.intp)]
        r = np.rint(s)
        decimal = (e == inside) & (s >= 1e11) & (r <= 1e12) & (np.abs(s - r) <= 0.499)
    m = (np.fmin(r, 1e12) * decimal).astype(np.int64)  # NaN goes to 1e12, then 0
    carry = m == 10**12  # rounds up to the next power of ten
    m[carry] = 10**11
    e = inside.astype(np.intp) + carry
    decimal &= e <= _E_MAX
    kind = 2 * (e - _E_MIN) + np.signbit(x)
    hi = m // 10**6
    lo = m - hi * 10**6
    g0 = hi // 1000
    g2 = lo // 1000
    g1 = hi - g0 * 1000
    g3 = lo - g2 * 1000
    index = (g0 + 1000 * ((lo == 0) & (g1 == 0)) + 2000 * (e < -4),
             g1 + 1000 * (lo == 0), g2 + 1000 * (g3 == 0), g3 + 1000)
    out = np.empty((len(x), _FIELD), np.uint64)
    out[:, 0] = _PREFIX[kind]
    digits = out[:, 1:3].view(np.uint32)
    for k in range(4):
        digits[:, k] = _DIGITS[index[k]]
    out[:, 3] = _SUFFIX[kind]
    slow = np.flatnonzero(~decimal)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.uint64), return_inverse=True)
        words = [json.dumps(jfloat(v)).encode() for v in bits.view(float).tolist()]
        out[slow] = np.array(words, dtype=f"S{8 * _FIELD}").view(np.uint64).reshape(-1, _FIELD)[inverse]
    return out


def read_json(path: str):
    """The JSON value in the UTF-8 file at path; FileFormatError naming the
    file if it is not UTF-8 text or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})")


def sha256_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
