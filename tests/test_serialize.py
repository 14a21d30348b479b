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
from xorgame.strategies import canonical_chshn, tsirelson_strategy
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

    def test_y_vector(self):
        y = chshn_dual_y(3)
        text = sz.dumps(sz.y_to_dict(y))
        back = sz.y_from_dict(json.loads(text))
        assert np.abs(back - y).max() < 1e-12
        assert sz.dumps(sz.y_to_dict(back)) == text

    def test_solution_fields(self):
        g, _ = chsh_game(2)
        sol = solve(symmetrize(g), 1e-7)
        d = sz.solution_to_dict(sol)
        assert set(d) == {"primal_value", "dual_value", "gap", "y", "z"}
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
