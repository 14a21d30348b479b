import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorgame import games, structure
from xorgame.games import (
    InvalidN,
    NotNormalized,
    TooLarge,
    XorGame,
    ZeroMatrix,
    chsh_game,
    chshn_pair_order,
    classical_bias,
    new_game,
    symmetrize,
)
from xorgame.relations import (
    RelationSystem,
    chshn_dual_y,
    chshn_relations_form1,
    chshn_relations_form2,
)
from xorgame.strategies import canonical_chshn
from xorgame.structure import canonical_vector_family


class TestNewGame:
    def test_accepts_normalized(self):
        g = new_game(np.full((2, 2), 0.25) * np.array([[1, 1], [1, -1]]))
        assert g.n_alice == 2 and g.n_bob == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            new_game(np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_unnormalized_message_spells_a_plain_float(self):
        with pytest.raises(NotNormalized) as info:
            new_game(np.array([[4e12, 3.0]]))
        assert "sum of |entries| is 4000000000003.0," in str(info.value)
        assert "np.float64" not in str(info.value)

    def test_normalize_flag_scales(self):
        g = new_game(np.array([[1.0, 1.0], [1.0, -1.0]]), normalize=True)
        assert np.allclose(np.abs(g.matrix), 0.25, atol=1e-15)
        assert abs(np.abs(g.matrix).sum() - 1.0) < 1e-12

    def test_zero_matrix_cannot_normalize(self):
        with pytest.raises(ZeroMatrix):
            new_game(np.zeros((2, 2)), normalize=True)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            new_game(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("normalize", [False, True], ids=["as-given", "normalize"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_message_with_and_without_normalize(self, bad, normalize):
        # XorGame's one check sees the entry, or the NaN that a NaN or inf
        # total leaves after normalization; no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^game matrix contains non-finite entries$"):
                new_game(np.array([[0.25, bad], [0.25, -0.25]]), normalize=normalize)

    def test_single_entry(self):
        g = new_game(np.array([[1.0]]))
        assert g.matrix[0, 0] == 1.0

    @pytest.mark.parametrize("build", [new_game, lambda m: XorGame(2, 2, m)])
    def test_matrix_is_a_read_only_copy(self, build):
        m = np.array([[0.25, 0.25], [0.25, -0.25]])
        g = build(m)
        m[0, 0] = 5.0
        assert np.abs(g.matrix).sum() == 1.0
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("labels", ["ab", ["a", "b"], (1, 2), ("a", "b", "c"), ("a",)], ids=repr)
    def test_labels_must_be_a_tuple_of_n_bob_strings(self, labels):
        m = np.array([[0.25, 0.25], [0.25, -0.25]])
        for build in (lambda: XorGame(2, 2, m, labels), lambda: new_game(m, labels=labels)):
            with pytest.raises(ValueError, match="^labels must be a tuple of n_bob = 2 strings, got "):
                build()
        assert new_game(m, labels=("a", "b")).labels == ("a", "b")

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalize_always_valid(self, n, m, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, m))
        if np.abs(raw).sum() == 0.0:
            return
        g = new_game(raw, normalize=True)
        assert abs(np.abs(g.matrix).sum() - 1.0) < 1e-12


class TestChshGame:
    def test_n2_matrix(self):
        g, _ = chsh_game(2)
        assert np.array_equal(g.matrix, np.array([[0.25, 0.25], [0.25, -0.25]]))

    def test_pair_order(self):
        assert chshn_pair_order(3) == ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_shape_and_weights(self, n):
        g, _ = chsh_game(n)
        assert g.matrix.shape == (n, n * (n - 1))
        nz = g.matrix[g.matrix != 0.0]
        assert nz.size == 2 * n * (n - 1)
        assert np.allclose(np.abs(nz), 1.0 / (2 * n * (n - 1)), atol=1e-15)
        # every row carries total weight 1/n
        assert np.allclose(np.abs(g.matrix).sum(axis=1), 1.0 / n, atol=1e-14)
        assert abs(g.matrix.sum() - 0.5) < 1e-13

    def test_column_signs(self):
        g, pairs = chsh_game(3)
        t_plus, t_minus = 0, 1
        assert pairs[t_plus] == (1, 2) and pairs[t_minus] == (2, 1)
        w = 1.0 / 12.0
        assert g.matrix[0, t_plus] == pytest.approx(w)
        assert g.matrix[1, t_plus] == pytest.approx(w)
        assert g.matrix[0, t_minus] == pytest.approx(w)
        assert g.matrix[1, t_minus] == pytest.approx(-w)

    def test_labels_follow_pairs(self):
        g, _ = chsh_game(2)
        assert g.labels == ("1,2", "2,1")

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_index_built_from_n(self, n):
        assert chsh_game(n)[1] == chshn_pair_order(n)

    def test_pair_order_invariants(self):
        # the two invariants every pair rule rests on: column t ^ 1 is column
        # t reversed, and the matched sign (the game's sign at row a of
        # column (a, b), + at row b) is + exactly when a < b
        for n in (2, 3, 4, 7):
            g, pairs = chsh_game(n)
            assert sorted(pairs) == sorted(itertools.permutations(range(1, n + 1), 2))
            w = 1.0 / (2 * n * (n - 1))
            for t, (a, b) in enumerate(pairs):
                assert pairs[t ^ 1] == (b, a)
                assert g.matrix[a - 1, t] == (w if a < b else -w)
                assert g.matrix[b - 1, t] == w
                assert np.count_nonzero(g.matrix[:, t]) == 2

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            chsh_game(1)


class TestOneNCheck:
    """Every public CHSH(n) entry point checks n with games.require_chshn_n,
    so an n that is not an integer >= 2 reads the same wherever it enters."""

    @pytest.mark.parametrize(
        "entry",
        [games.require_chshn_n, chsh_game, games.chshn_matrix, canonical_chshn, chshn_dual_y,
         chshn_relations_form1, chshn_relations_form2, canonical_vector_family],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("n", [1, 0, -3, 2.0, np.int64(1)], ids=repr)
    def test_one_wording(self, entry, n):
        with pytest.raises(InvalidN) as info:
            entry(n)
        assert str(info.value) == f"CHSH(n) needs integer n >= 2, got {n!r}"

    @pytest.mark.parametrize("n", [2, 7, np.int64(3)], ids=repr)
    def test_accepts_integers_from_two(self, n):
        assert games.require_chshn_n(n) == n and type(games.require_chshn_n(n)) is int


def _arrays(obj):
    """Every array of a cached CHSH(n) object, in a fixed order."""
    if isinstance(obj, tuple) and isinstance(obj[0], XorGame):
        return [obj[0].matrix]
    if isinstance(obj, structure._Reference):
        return [obj.ybar, obj.signs, obj.targets, *obj.taus]
    if isinstance(obj, RelationSystem):
        return [obj.y, obj.u, obj.v]
    return [obj.alice, obj.bob, obj.state]


_PER_N = [chsh_game, canonical_chshn, chshn_relations_form1, chshn_relations_form2,
          structure._reference]


class TestPerNCache:
    """The objects of n alone are built once per process (games._per_n)."""

    @pytest.mark.parametrize("build", _PER_N, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cached_equals_fresh_build(self, build, n):
        cached, fresh = build(n), build.__wrapped__(n)
        assert cached is not fresh
        got, want = _arrays(cached), _arrays(fresh)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]  # signed zeros too
        assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
        if build is chsh_game:
            assert cached[1] == fresh[1] and cached[0].labels == fresh[0].labels

    @pytest.mark.parametrize("build", _PER_N, ids=lambda f: f.__name__)
    def test_shared_and_read_only(self, build):
        first = build(4)
        assert build(4) is first and build(np.int64(4)) is first
        for a in _arrays(first):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0

    @pytest.mark.parametrize("build", _PER_N, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2.0, np.int64(1), True, "3", [3]], ids=repr)
    def test_checks_n_before_the_lookup(self, build, n):
        # TestOneNCheck with warm caches: 2.0 would hit the entry for 2, as hash(2.0) == hash(2)
        build(2), build(3)
        with pytest.raises(InvalidN) as info:
            build(n)
        assert str(info.value) == f"CHSH(n) needs integer n >= 2, got {n!r}"

    @pytest.mark.parametrize("build", _PER_N, ids=lambda f: f.__name__)
    def test_holds_the_certify_cycle(self, build):
        # certify walks n = 2..8 in every pass; a bound below 7 would miss every time
        build.cache_clear()
        for _ in range(3):
            for n in range(2, 9):
                build(n)
        info = build.cache_info()
        assert (info.misses, info.hits) == (7, 14) and info.maxsize >= 7


class TestClassicalBias:
    def test_chsh2_value(self):
        g, _ = chsh_game(2)
        assert classical_bias(g) == pytest.approx(0.5, abs=1e-15)

    def test_chsh3_value(self):
        g, _ = chsh_game(3)
        assert classical_bias(g) == pytest.approx(0.5, abs=1e-15)

    def test_single_entry(self):
        assert classical_bias(new_game(np.array([[1.0]]))) == pytest.approx(1.0)

    def test_guard_against_huge_enumeration(self):
        # the guard is on the smaller side: 25 questions each way exceed it
        g = new_game(np.full((25, 25), 1.0 / 625.0))
        with pytest.raises(TooLarge):
            classical_bias(g)

    def test_enumerates_the_smaller_side(self):
        # 2 x 30 and 30 x 2 need 4 sign vectors, not 2^30
        g = new_game(np.full((2, 30), 1.0 / 60.0))
        gt = new_game(g.matrix.T)
        assert classical_bias(g) == pytest.approx(1.0, abs=1e-15)
        assert classical_bias(gt) == pytest.approx(1.0, abs=1e-15)

    def test_chsh5_is_enumerated(self):
        g, _ = chsh_game(5)
        assert classical_bias(g) == pytest.approx(0.5, abs=1e-15)

    def test_transpose_invariant(self, rng):
        g = new_game(rng.standard_normal((5, 3)), normalize=True)
        gt = new_game(g.matrix.T)
        assert classical_bias(g) == pytest.approx(classical_bias(gt), abs=1e-14)

    def test_upper_bounds_any_sign_assignment(self, rng):
        g = new_game(rng.standard_normal((3, 4)), normalize=True)
        best = classical_bias(g)
        for _ in range(50):
            a = rng.choice([-1.0, 1.0], size=3)
            b = rng.choice([-1.0, 1.0], size=4)
            assert a @ g.matrix @ b <= best + 1e-12


def _loop_classical_bias(g):
    """One sign vector of the smaller side at a time, all 2^k of them."""
    m = g.matrix if g.n_alice <= g.n_bob else g.matrix.T
    best = -np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=m.shape[0]):
        best = max(best, float(np.abs(np.asarray(bits) @ m).sum()))
    return best


def _random_games(seed):
    rng = np.random.default_rng(seed)
    for k in range(1, 13):
        shape = (k, k + int(rng.integers(0, 4)))
        if rng.random() < 0.5:
            shape = shape[::-1]
        yield new_game(rng.standard_normal(shape), normalize=True)


class TestClassicalBiasMatchesLoop:
    def test_random_games_up_to_12_questions(self):
        for g in _random_games(7):
            assert classical_bias(g) == pytest.approx(_loop_classical_bias(g), abs=1e-12)

    def test_chunks_of_a_few_rows(self, monkeypatch):
        # 3 rows per chunk of a (rows x width) product: many chunks per game
        for g in _random_games(8):
            width = max(g.n_alice, g.n_bob)
            monkeypatch.setattr(games, "CLASSICAL_CHUNK_ENTRIES", 3 * width)
            assert classical_bias(g) == pytest.approx(_loop_classical_bias(g), abs=1e-12)


class TestSymmetrize:
    def test_block_layout(self):
        g = new_game(np.array([[0.5, -0.5]]))
        s = symmetrize(g)
        expected = np.array(
            [
                [0.0, 0.25, -0.25],
                [0.25, 0.0, 0.0],
                [-0.25, 0.0, 0.0],
            ]
        )
        assert np.array_equal(s, expected)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_zero_diagonal_blocks(self, n, m, seed):
        rng = np.random.default_rng(seed)
        g = new_game(rng.standard_normal((n, m)), normalize=True)
        s = symmetrize(g)
        assert s.shape == (n + m, n + m)
        assert np.array_equal(s, s.T)
        assert np.abs(s[:n, :n]).max() == 0.0
        assert np.abs(s[n:, n:]).max() == 0.0
        assert np.array_equal(s[:n, n:], g.matrix / 2.0)
