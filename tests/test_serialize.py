import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorgame import serialize as sz
from xorgame.games import chsh_game
from xorgame.relations import chshn_dual_y, chshn_relations_form1
from xorgame.sdp import solve
from xorgame.strategies import canonical_chshn, perturb, tsirelson_strategy
from xorgame.games import symmetrize


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestJfloat:
    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x):
        once = sz.jfloat(x)
        assert sz.jfloat(once) == once

    @given(finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_relative_error_below_12_digits(self, x):
        out = sz.jfloat(x)
        if x != 0.0:
            assert abs(out - x) <= 1e-11 * abs(x)

    def test_survives_json_round_trip(self):
        vals = [sz.jfloat(v) for v in (1 / 3, math.pi, 1e-300, -7.25, 0.1)]
        assert json.loads(json.dumps(vals)) == vals


class TestMatrixFormat:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        d = sz.matrix_to_dict(m)
        back = sz.matrix_from_dict(d)
        assert back.shape == (r, c)
        assert np.abs(back - m).max() < 1e-11 * max(1.0, np.abs(m).max())

    def test_row_major_entry_order(self):
        d = sz.matrix_to_dict(np.array([[1, 2], [3, 4]], dtype=complex))
        assert [e[0] for e in d["entries"]] == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_entry_count_mismatch(self):
        with pytest.raises(sz.FileFormatError):
            sz.matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1, 0]]})

    def test_rejects_scalar_entries(self):
        with pytest.raises(sz.FileFormatError):
            sz.matrix_from_dict({"rows": 1, "cols": 1, "entries": [3.0]})

    def test_rejects_missing_keys(self):
        with pytest.raises(sz.FileFormatError):
            sz.matrix_from_dict({"rows": 1})


class TestArtifactRoundTrips:
    def test_game_exact(self):
        # entries round-trip exactly so the Σ|G| = 1 gate re-validates
        g, _ = chsh_game(3)
        text = sz.dumps(sz.game_to_dict(g))
        back = sz.game_from_dict(json.loads(text))
        assert np.array_equal(back.matrix, g.matrix)
        assert back.labels == g.labels
        # byte-identical re-serialization
        assert sz.dumps(sz.game_to_dict(back)) == text

    def test_game_chsh6_survives_round_trip(self):
        # the 1/60 weight is the tightest normalization case
        g, _ = chsh_game(6)
        back = sz.game_from_dict(json.loads(sz.dumps(sz.game_to_dict(g))))
        assert np.array_equal(back.matrix, g.matrix)

    def test_strategy(self):
        s = canonical_chshn(3)
        text = sz.dumps(sz.strategy_to_dict(s))
        back = sz.strategy_from_dict(json.loads(text))
        assert back.d_A == s.d_A and back.d_B == s.d_B
        assert sz.dumps(sz.strategy_to_dict(back)) == text

    def test_relations(self):
        rel = chshn_relations_form1(4)
        text = sz.dumps(sz.relations_to_dict(rel))
        back = sz.relations_from_dict(json.loads(text), 4, 12)
        assert back.r == rel.r
        assert sz.dumps(sz.relations_to_dict(back)) == text

    def test_relations_without_pairs(self):
        back = sz.relations_from_dict({"y": [0.1] * 5, "pairs": []}, 2, 3)
        assert back.r == 0
        assert back.u.shape == (0, 2) and back.v.shape == (0, 3)

    def test_y_vector(self):
        y = chshn_dual_y(3)
        text = sz.dumps(sz.y_to_dict(y))
        back = sz.y_from_dict(json.loads(text))
        assert np.abs(back - y).max() < 1e-12
        assert sz.dumps(sz.y_to_dict(back)) == text

    def test_solution_fields(self):
        g, _ = chsh_game(2)
        sol = solve(symmetrize(g), 1e-7)
        d = sz.report_to_dict(sol, omit=("iterations", "converged"))
        assert list(d) == ["primal_value", "dual_value", "gap", "y", "z"]
        assert d["y"] == [sz.jfloat(x) for x in sol.y]
        assert d["primal_value"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
        zm = sz.matrix_from_dict(d["z"])
        assert zm.shape == (4, 4)
        # the serialized correlation matrix still builds a good strategy
        s = tsirelson_strategy(zm.real, 2, 2)
        assert s.d_A == 4

    def test_strategy_missing_field(self):
        with pytest.raises(sz.FileFormatError):
            sz.strategy_from_dict({"d_A": 2})

    def test_game_wrong_matrix_length(self):
        with pytest.raises(sz.FileFormatError):
            sz.game_from_dict({"n_alice": 2, "n_bob": 2, "matrix": [1.0]})


class TestFiles:
    def test_write_read_and_digest(self, tmp_path):
        p = tmp_path / "g.json"
        g, _ = chsh_game(2)
        sz.write_json(sz.game_to_dict(g), str(p))
        assert sz.read_json(str(p)) == sz.game_to_dict(g)
        d1 = sz.sha256_digest(str(p))
        sz.write_json(sz.game_to_dict(g), str(p))
        assert sz.sha256_digest(str(p)) == d1

    def test_read_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(sz.FileFormatError):
            sz.read_json(str(p))

    def test_read_rejects_non_utf8_and_names_the_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(sz.FileFormatError, match="bad.json: invalid JSON"):
            sz.read_json(str(p))


class TestSweepCsv:
    def test_header_is_the_column_list(self):
        assert sz.SWEEP_HEADER == ",".join(sz.SWEEP_COLUMNS) + "\n"
        assert len(sz.SWEEP_COLUMNS) == 8

    def test_row_keeps_ints_and_rounds_floats_to_12_digits(self):
        from xorgame.structure import IntertwinerReport

        rep = IntertwinerReport(
            t=np.eye(1, dtype=complex),
            frob_norm=1.0,
            alice_residuals=(0.1, 2.0 / 3.0),
            bob_residuals=(1e-20, 0.0),
            epsilon=1.0 / 3.0,
            alice_bound=12.0,
            bob_bound=17.0,
            bounds_hold=True,
        )
        row = sz.sweep_row(3, 1.0 / 7.0, 10**13, rep)
        assert row == "3,0.142857142857,10000000000000,0.333333333333,0.666666666667,12,1e-20,17\n"


# ---------------------------------------------------------------- writer oracle
#
# The writer must give exactly the bytes of json.dumps(indent=2).  Plain JSON
# values are compared with json.dumps directly.  Matrices and states are
# compared with json.dumps of the per-entry encoding they had before they
# became [re, im] float arrays, kept here as the reference.


def reference_pairs(z) -> list:
    return [[sz.jfloat(c.real), sz.jfloat(c.imag)] for c in np.asarray(z, dtype=complex).reshape(-1)]


def reference_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": reference_pairs(m)}


def oracle(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# Where '%.12g' and repr(float(...)) spell a value differently, or nearly so.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e-4, 9.9999e-5, 1e-5, -3.3e-7, 0.1, 1 / 3,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.2250738585e-308, 1e-307,
    0.99999999999995, 2.00000000000004, 1.0000000000049, -123456.0000004, 123456.5, 12345678901.25, 99999999999.99,
    1e11, 100000000000.4, 999999999999.5, 1e12, -5e13, 3.14159e14, 9.999999999999e15,
    9999999999999999.0, 1e16, -1.5e17, 1e300, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]

edge_floats = st.one_of(
    st.floats(),  # every double: subnormals, NaN and infinities included
    st.sampled_from(EDGE_FLOATS),
    st.integers(-10**6, 10**6).map(float),
    st.floats(1e12, 1e16) | st.floats(-1e16, -1e12),
    st.floats(-1e-4, 1e-4),
    st.floats(1e16, 1e300),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | edge_floats
    | st.text(alphabet=st.characters(), max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
        | st.lists(edge_floats, min_size=1, max_size=6)
    ),
    max_leaves=20,
)


class TestDumpsMatchesJsonDumps:
    @given(json_values)
    @settings(max_examples=100, deadline=None)
    def test_json_values(self, doc):
        assert sz.dumps(doc) == oracle(doc)

    @pytest.mark.parametrize(
        "doc",
        [[], {}, [[]], {"a": {}}, [[], {}], "ünïcödé λ ✓", {"κλειδί": ["ω", None]},
         [True, False, None, 0, -7, 2**80], [1.0, 2, 3.5], (1.0, -0.0), [math.nan, 1.0],
         {1: 2.0}],
    )
    def test_edge_documents(self, doc):
        assert sz.dumps(doc) == oracle(doc)

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_empty_arrays(self, shape):
        v = np.zeros(shape)
        assert sz.dumps({"a": [v, 1.5]}) == oracle({"a": [v.tolist(), 1.5]})

    @pytest.mark.parametrize("doc", [[sz._HOLE], {"m": np.eye(2), "s": sz._HOLE}, {sz._HOLE: 1}])
    def test_rejects_a_string_equal_to_the_array_marker(self, doc):
        with pytest.raises(ValueError, match="marker"):
            sz.dumps(doc)

    @pytest.mark.parametrize("bad", [{1, 2}, 1j, np.int64(3), b"x", np.zeros(3)])
    def test_rejects_what_json_cannot_write(self, bad):
        with pytest.raises(TypeError):
            sz.dumps({"x": [bad]})

    def test_write_json_writes_dumps(self, tmp_path):
        doc = {"t": sz.matrix_to_dict(np.eye(3) * 0.5j), "x": [1.5, None]}
        p = tmp_path / "doc.json"
        sz.write_json(doc, str(p))
        assert p.read_text() == sz.dumps(doc)


complex_entries = st.builds(complex, edge_floats, edge_floats)


class TestArraysMatchPerEntryReference:
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_matrix_edge_values(self, rows, cols, data):
        vals = data.draw(st.lists(complex_entries, min_size=rows * cols, max_size=rows * cols))
        m = np.array(vals, dtype=complex).reshape(rows, cols)
        assert sz.dumps(sz.matrix_to_dict(m)) == oracle(reference_matrix(m))

    @pytest.mark.parametrize("seed", range(2))
    def test_random_bit_patterns(self, seed):
        # every exponent, sign, subnormal, NaN and infinity, 10 000 values
        bits = np.random.default_rng(seed).integers(0, 2**64, size=10_000, dtype=np.uint64)
        m = bits.view(float).view(complex).reshape(50, 100)
        assert sz.dumps(sz.matrix_to_dict(m)) == oracle(reference_matrix(m))

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e5, 1e11, 1e13])
    def test_random_gaussian_and_rounded_integers(self, scale):
        rng = np.random.default_rng(7)
        m = (rng.standard_normal((70, 60)) + 1j * rng.standard_normal((70, 60))) * scale
        m.real[::3] = np.rint(m.real[::3])
        m.imag[::5] = 0.0
        assert m.size > sz.ROWS_PER_FILL  # the entries span two spelling blocks
        assert sz.dumps(sz.matrix_to_dict(m)) == oracle(reference_matrix(m))

    def test_strategy(self):
        s = perturb(canonical_chshn(3), 0.05, 1, include_bob=True)
        ref = {
            "d_A": s.d_A,
            "d_B": s.d_B,
            "alice": [reference_matrix(o) for o in s.alice],
            "bob": [reference_matrix(o) for o in s.bob],
            "state": reference_pairs(s.state),
        }
        assert sz.dumps(sz.strategy_to_dict(s)) == oracle(ref)

    @given(st.lists(complex_entries, min_size=4, max_size=4), edge_floats, edge_floats)
    @settings(max_examples=25, deadline=None)
    def test_report(self, vals, eps, res):
        from xorgame.structure import IntertwinerReport

        rep = IntertwinerReport(
            t=np.array(vals).reshape(2, 2), frob_norm=res, alice_residuals=(res, eps),
            bob_residuals=(), epsilon=eps, alice_bound=12.0, bob_bound=17.0, bounds_hold=False,
        )
        ref = dict(sz.report_to_dict(rep, omit=("t",)))
        ref = {"t": reference_matrix(rep.t), **ref}
        assert sz.dumps(sz.report_to_dict(rep)) == oracle(ref)

    def test_loaded_and_encoded_documents_give_the_same_bytes(self):
        m = np.array([[0.1 + 2j, -0.0], [1e13 - 1e-320j, math.nan]])
        text = sz.dumps(sz.matrix_to_dict(m))
        assert sz.dumps(json.loads(text)) == text


class TestSpellingEdges:
    """The table-driven spelling against json.dumps: the tie band, carries
    across a power of ten, the fixed/exponent switch, and the values left to
    the per-value spelling."""

    @staticmethod
    def assert_matches(values):
        values = list(values) + [0.5] * (len(values) % 2)  # [re, im] pairs
        m = np.asarray(values, dtype=float).view(complex).reshape(-1, 1)
        assert sz.dumps(sz.matrix_to_dict(m)) == oracle(reference_matrix(m))

    @pytest.mark.parametrize("e", [-99, -40, -12, -5, -4, -3, -1])
    def test_tie_band(self, e):
        # 12-digit mantissas followed by a 5: the double is within an ulp of
        # a rounding tie, where rint of the scaled value can fall either way
        rng = np.random.default_rng(-e)
        ties = (rng.integers(10**11, 10**12, size=2000) + 0.5) * 10.0 ** (e - 11)
        near = np.concatenate([np.nextafter(ties, 0), ties, np.nextafter(ties, 1)])
        self.assert_matches(np.concatenate([near, -near]))

    def test_round_up_across_a_power_of_ten(self):
        # 0.1 and 1e-4 (fixed notation) from below, the second from an
        # exponent-notation neighbourhood; 1 from below is an integer
        values = [0.0999999999999996, 9.99999999999996e-5, -9.99999999999996e-5,
                  9.99999999999996e-6, 9.99999999999996e-99, 0.999999999999996, 0.9999999999996]
        self.assert_matches(values + [np.nextafter(10.0 ** -k, 0) for k in range(1, 100)])

    def test_fixed_exponent_switch(self):
        # e = -4 is written 0.000ddd, e = -5 as d.ddde-05
        values = [1.23456789012345e-4, -9.87654321098765e-4, 1e-4, 1.5e-4, 1.23456789012345e-5,
                  -9.87654321098765e-5, 1e-5, 1.5e-5, 1.000000000001e-5, 1.00000000001e-4]
        self.assert_matches(values)

    def test_three_digit_exponents(self):
        values = [1e-100, -1.5e-100, 1.23456789012345e-150, 9.99999999999996e-100, 2.2250738585e-308]
        self.assert_matches(values)

    def test_non_integers_of_magnitude_one_or_more(self):
        values = [1.5, -2.25, 12345.678, -99.999, 999.5, 123456789.123, 2.5e10 + 0.3, 1.00000000001]
        self.assert_matches(values)

    def test_integer_table_edges(self):
        values = [0.0, -0.0, 999.0, -999.0, 1000.0, -1000.0, 998.9999999999999, 7.0, -42.0]
        self.assert_matches(values)

    def test_strategy_and_report_in_one_document_over_several_blocks(self):
        # The extra matrices share the strategy matrices' indentation, so they
        # are laid out in one record array, and block boundaries fall inside
        # them; the report's T and the state have layouts of their own.
        from xorgame.structure import intertwiner_report

        s = perturb(canonical_chshn(7), 0.05, 3, include_bob=True)
        g, _ = chsh_game(5)
        rep = intertwiner_report(g, perturb(canonical_chshn(5), 0.1, 4), 5)
        rng = np.random.default_rng(11)
        extra = [rng.standard_normal((r, c)) * 10.0 ** rng.integers(-12, 3, (r, c)) for r, c in [(37, 41), (61, 67)]]
        doc = {"strategy": sz.strategy_to_dict(s), "report": sz.report_to_dict(rep),
               "extra": {"alice": [sz.matrix_to_dict(m) for m in extra]}}
        ref = {
            "strategy": {"d_A": s.d_A, "d_B": s.d_B,
                         "alice": [reference_matrix(o) for o in s.alice],
                         "bob": [reference_matrix(o) for o in s.bob],
                         "state": reference_pairs(s.state)},
            "report": {"t": reference_matrix(rep.t), **sz.report_to_dict(rep, omit=("t",))},
            "extra": {"alice": [reference_matrix(m) for m in extra]},
        }
        assert sum(len(o.reshape(-1)) for o in (*s.alice, *s.bob)) > 3 * sz.ROWS_PER_FILL
        assert sz.dumps(doc) == oracle(ref)


# ---------------------------------------------------------------- reader parity


def reference_parse_complex(v) -> complex:
    """The per-entry parser matrix_from_dict used before the np.array reader."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise sz.FileFormatError(f"complex entries must be [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def reference_matrix_from_dict(d) -> np.ndarray:
    rows, cols, entries = int(d["rows"]), int(d["cols"]), d["entries"]
    if len(entries) != rows * cols:
        raise sz.FileFormatError("entry count")
    return np.array([reference_parse_complex(v) for v in entries], dtype=complex).reshape(rows, cols)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


json_numbers = edge_floats | st.integers(-2**60, 2**60) | st.booleans()


class TestReaderMatchesPerEntryParse:
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_values(self, rows, cols, data):
        pairs = data.draw(st.lists(st.lists(json_numbers, min_size=2, max_size=2),
                                   min_size=rows * cols, max_size=rows * cols))
        d = json.loads(json.dumps({"rows": rows, "cols": cols, "entries": pairs}))
        if pairs and all(isinstance(x, bool) for p in pairs for x in p):
            # booleans only are refused, where float() took them
            with pytest.raises(sz.FileFormatError, match="got a boolean$"):
                sz.matrix_from_dict(d)
        else:
            assert same_bits(sz.matrix_from_dict(d), reference_matrix_from_dict(d))

    def test_random_values_and_in_process_arrays(self):
        m = np.random.default_rng(3).standard_normal((6, 5)) * (1 + 1j)
        d = json.loads(sz.dumps(sz.matrix_to_dict(m)))
        assert same_bits(sz.matrix_from_dict(d), reference_matrix_from_dict(d))
        assert same_bits(sz.matrix_from_dict(sz.matrix_to_dict(m)), m)

    def test_reads_json_numbers_bit_for_bit(self):
        # ints, NaN/-Infinity literals and -0.0; numpy upcasts a bool among
        # numbers, so [1, true] reads as [1, 1], the one non-number accepted
        entries = json.loads("[[1, -7], [NaN, -Infinity], [-0.0, 1e300], [1, true]]")
        d = {"rows": 2, "cols": 2, "entries": entries}
        assert same_bits(sz.matrix_from_dict(d), reference_matrix_from_dict(d))
        assert same_bits(sz.matrix_from_dict({"rows": 0, "cols": 3, "entries": []}),
                         np.zeros((0, 3), dtype=complex))

    @pytest.mark.parametrize(
        "values", [[2**64], [2**64, 0.5], [-(2**70), 3, 1e300], [2**64 + 1, 2**63]], ids=repr
    )
    def test_reads_integers_beyond_64_bits_as_float_does(self, values):
        # numpy gives such lists the object dtype; each value reads as float() reads it
        assert same_bits(sz.y_from_dict({"y": values}), np.array([float(v) for v in values]))
        d = {"rows": 1, "cols": len(values), "entries": [[v, 0] for v in values]}
        assert same_bits(sz.matrix_from_dict(d), reference_matrix_from_dict(d))

    @pytest.mark.parametrize(
        "entries,got",
        [
            ([[" 1.5 ", "1_000"]], "a string"),
            ([["nan", 1.0]], "a string"),
            ([[None, 1.0]], "null"),
            ([[None, None]], "null"),
            ([[True, False]], "a boolean"),
            ([[{"re": 1}, 1.0]], "an object"),
            ([[10**400, 0.0]], "an integer beyond the double range"),
        ],
        ids=["strings", "numeric-string", "null", "nulls", "booleans", "object", "int-beyond-double-range"],
    )
    def test_refuses_what_is_not_a_json_number(self, entries, got):
        # float() takes the strings and the booleans
        with pytest.raises(sz.FileFormatError, match=f"^matrix entry list must hold numbers, got {got}$"):
            sz.matrix_from_dict({"rows": 1, "cols": 1, "entries": entries})

    @pytest.mark.parametrize(
        "entries",
        [
            [3.0],                 # scalar entry
            [[1.0]],               # one-element entry
            [[1.0, 2.0, 3.0]],     # three-element entry
            [[1.0, 2.0], [3.0]],   # ragged
            [[[1.0, 2.0], [3.0, 4.0]]],  # nested too deep
            [[None, 1.0]],         # null
            [[{"re": 1}, 1.0]],    # object
            [["one", 1.0]],        # non-numeric string
            [[10**400, 0.0]],      # int beyond float range
            5,                     # non-list entries
            "ab",
            {"a": [1.0, 2.0]},
            None,
            [[1.0, 2.0], [3.0, 4.0]],  # count mismatch (rows * cols = 1)
        ],
    )
    def test_rejects(self, entries):
        d = {"rows": 1, "cols": 1, "entries": entries}
        with pytest.raises(sz.FileFormatError):
            sz.matrix_from_dict(d)
        # rejected before as well: FileFormatError, or an uncaught
        # TypeError / ValueError / OverflowError
        with pytest.raises((sz.FileFormatError, TypeError, ValueError, OverflowError)):
            reference_matrix_from_dict(d)

    def test_strategy_state_matches_per_entry_parse(self):
        s = perturb(canonical_chshn(2), 0.1, 4)
        d = json.loads(sz.dumps(sz.strategy_to_dict(s)))
        state = np.array([reference_parse_complex(v) for v in d["state"]], dtype=complex)
        assert same_bits(sz.strategy_from_dict(d).state, state.reshape(s.d_A, s.d_B))


class TestWrongTypedFields:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n_alice": 2, "n_bob": 2, "matrix": 5},
            {"n_alice": 2, "n_bob": 2, "matrix": [[0.25, 0.25], [0.25, -0.25]]},
            {"n_alice": 1, "n_bob": 1, "matrix": [None]},
            {"n_alice": 1, "n_bob": 1, "matrix": [1.0], "labels": 3},
            {"n_alice": [2], "n_bob": 2, "matrix": []},
            {"n_alice": -2, "n_bob": -2, "matrix": [0.25, 0.25, 0.25, -0.25]},  # (-2)·(-2) = 4
            {"n_alice": 0, "n_bob": 3, "matrix": []},
            {"n_alice": "2", "n_bob": 2, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": 2, "n_bob": 2.9, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": 2, "n_bob": 2.0, "matrix": [0.25, 0.25, 0.25, -0.25]},
            {"n_alice": True, "n_bob": 1, "matrix": [1.0]},
            {"n_alice": 1, "n_bob": 2, "matrix": [0.5, 0.5], "labels": "ab"},
            {"n_alice": 1, "n_bob": 2, "matrix": [0.5, 0.5], "labels": [1, 2]},
            {"n_alice": 1, "n_bob": 2, "matrix": [0.5, 0.5], "labels": ["a", "b", "c"]},
            [2, 2, [0.25, 0.25, 0.25, -0.25]],
        ],
    )
    def test_game(self, doc):
        with pytest.raises(sz.FileFormatError):
            sz.game_from_dict(doc)

    @pytest.mark.parametrize(
        "field,value",
        [("alice", 3), ("bob", None), ("alice", [3]), ("alice", ["ab"]), ("state", 5),
         ("state", [[1.0]]), ("d_A", [2]), ("d_A", 2.7), ("d_A", "2"), ("d_B", True),
         ("d_B", -2)],
    )
    def test_strategy(self, field, value):
        d = sz.strategy_to_dict(canonical_chshn(2))
        d[field] = value
        with pytest.raises(sz.FileFormatError):
            sz.strategy_from_dict(d)

    @pytest.mark.parametrize("d", [5, [1, 2], {"rows": [1], "cols": 1, "entries": [[1, 0]]},
                                   {"rows": -1, "cols": -1, "entries": [[1, 0]]},
                                   {"rows": True, "cols": 1, "entries": [[1, 0]]},
                                   {"rows": 1, "cols": 1.0, "entries": [[1, 0]]}])
    def test_matrix(self, d):
        with pytest.raises(sz.FileFormatError):
            sz.matrix_from_dict(d)

    # a JSON string is a sequence too: {"y": "1234"} must not read as [1, 2, 3, 4]
    @pytest.mark.parametrize("y", ["1234", ["abc"], [[1.0]], None, 5],
                             ids=["string", "string-entry", "nested", "null", "number"])
    def test_y(self, y):
        with pytest.raises(sz.FileFormatError):
            sz.y_from_dict({"y": y})

    @pytest.mark.parametrize(
        "field,value",
        [("y", "1234"), ("y", ["abc"]), ("u", "12"), ("v", ["x", "y"]), ("u", [[1.0, 0.0]]),
         ("u", [1.0, 0.0, 0.0]), ("v", [1.0])],
        ids=["y-string", "y-string-entry", "u-string", "v-string-entries", "u-nested",
             "u-length", "v-length"],
    )
    def test_relations(self, field, value):
        d = {"y": [0.1] * 4, "pairs": [{"u": [1.0, 0.0], "v": [0.0, 1.0]}]}
        if field == "y":
            d["y"] = value
        else:
            d["pairs"][0][field] = value
        with pytest.raises(sz.FileFormatError):
            sz.relations_from_dict(d, 2, 2)

    def test_relations_with_ragged_pairs(self):
        pairs = [{"u": [1.0, 0.0], "v": [0.0, 1.0]}, {"u": [1.0], "v": [0.0]}]
        with pytest.raises(sz.FileFormatError, match="relation pair 1: u has length 1, not 2"):
            sz.relations_from_dict({"y": [0.1] * 4, "pairs": pairs}, 2, 2)
