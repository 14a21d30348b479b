import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorgame.games import chsh_game, new_game, symmetrize
from xorgame.linalg import DimensionMismatch
from xorgame.relations import (
    DualInfeasible,
    RelationSystem,
    certify_epsilon,
    check_identity,
    chshn_dual_y,
    chshn_relations_form1,
    chshn_relations_form2,
    extract_relations,
    invariant_deviations,
    residual,
)
from xorgame.sdp import solve, verify_dual_feasible
from xorgame.strategies import (
    Strategy,
    bias,
    canonical_chshn,
    embed_with_junk,
    maximally_entangled,
    perturb,
)

from conftest import near_optimal_variants, random_observable
from oracles import loop_extract_relations

RT2 = np.sqrt(2.0)


class TestDualY:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_values_and_sum(self, n):
        y = chshn_dual_y(n)
        assert y.size == n * n
        assert np.allclose(y[:n], 1.0 / (2 * RT2 * n), atol=1e-16)
        assert np.allclose(y[n:], 1.0 / (2 * RT2 * n * (n - 1)), atol=1e-16)
        assert abs(y.sum() - 1.0 / RT2) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_feasible(self, n):
        g, _ = chsh_game(n)
        ok, min_eig = verify_dual_feasible(chshn_dual_y(n), symmetrize(g))
        assert ok and min_eig >= -1e-12


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("form", [chshn_relations_form1, chshn_relations_form2])
    def test_invariants_exact(self, n, form):
        g, _ = chsh_game(n)
        rel = form(n)
        assert rel.r == n * (n - 1)
        assert max(invariant_deviations(rel, g)) < 1e-14

    def test_form1_alice_sum_for_n3(self):
        rel = chshn_relations_form1(3)
        uu = rel.u.T @ rel.u
        assert np.abs(uu - np.eye(3) / (6.0 * RT2)).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("form", [chshn_relations_form1, chshn_relations_form2])
    def test_canonical_residual_vanishes(self, n, form):
        assert residual(canonical_chshn(n), form(n)) < 1e-12

    def test_forms_agree_on_arbitrary_strategies(self):
        s = perturb(canonical_chshn(3), 0.4, seed=11, include_bob=True)
        r1 = residual(s, chshn_relations_form1(3))
        r2 = residual(s, chshn_relations_form2(3))
        assert abs(r1 - r2) < 1e-9

    def test_rejects_small_n(self):
        from xorgame.games import InvalidN

        with pytest.raises(InvalidN):
            chshn_relations_form1(1)


class TestExtractRelations:
    def test_closed_form_y_chsh2(self):
        g, _ = chsh_game(2)
        rel = extract_relations(g, chshn_dual_y(2))
        assert rel.r <= 4
        assert max(invariant_deviations(rel, g)) < 1e-10

    def test_single_entry_game(self):
        g = new_game(np.array([[1.0]]))
        rel = extract_relations(g, [0.5, 0.5])
        uv = rel.u.T @ rel.v
        assert np.abs(uv - g.matrix / 2.0).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_solved_dual_gives_small_canonical_residual(self, n):
        g, _ = chsh_game(n)
        sol = solve(symmetrize(g), 1e-8)
        rel = extract_relations(g, sol.y)
        assert residual(canonical_chshn(n), rel) < 1e-5

    def test_oversized_cutoff_empties_pairs(self):
        g, _ = chsh_game(2)
        rel = extract_relations(g, chshn_dual_y(2), cutoff=10.0)
        assert rel.r == 0
        assert max(invariant_deviations(rel, g)) > 0.01

    def test_infeasible_y_rejected(self):
        g, _ = chsh_game(2)
        with pytest.raises(DualInfeasible):
            extract_relations(g, np.zeros(4))

    def test_wrong_length_rejected(self):
        g, _ = chsh_game(2)
        with pytest.raises(DimensionMismatch):
            extract_relations(g, np.ones(5))

    def test_negative_cutoff_rejected(self):
        g, _ = chsh_game(2)
        with pytest.raises(ValueError):
            extract_relations(g, chshn_dual_y(2), cutoff=-1.0)

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf])
    def test_non_finite_cutoff_rejected(self, cutoff):
        # NaN passes a bare `< 0` test and would keep no pair at all
        g, _ = chsh_game(2)
        with pytest.raises(ValueError, match="cutoff must be finite and >= 0"):
            extract_relations(g, chshn_dual_y(2), cutoff=cutoff)


def _random_game(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 7, 2)
    return new_game(rng.standard_normal((n, m)), normalize=True), rng


class TestExtractMatchesLoopOracle:
    """The one-slice extraction gives the per-eigenpair loop's U and V bit
    for bit."""

    @staticmethod
    def _assert_matches(g, y, cutoff=1e-9):
        rel = extract_relations(g, y, cutoff)
        u, v = loop_extract_relations(g, y, cutoff)
        assert rel.u.shape == u.shape and rel.v.shape == v.shape
        assert rel.u.tobytes() == u.tobytes() and rel.v.tobytes() == v.tobytes()
        return rel

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form_dual(self, n):
        self._assert_matches(chsh_game(n)[0], chshn_dual_y(n))

    @pytest.mark.parametrize("seed", range(4))
    def test_solved_dual_of_random_games(self, seed):
        g, _ = _random_game(seed)
        self._assert_matches(g, solve(symmetrize(g), 1e-8).y)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("cutoff", [0.0, 1e-9, 0.05])
    def test_diagonally_dominant_y_of_random_games(self, seed, cutoff):
        # y_i ≥ Σ_j |G_sym|_ij makes Diag(y) − G_sym diagonally dominant, so PSD
        g, rng = _random_game(seed)
        y = np.abs(symmetrize(g)).sum(axis=1) + rng.random(g.n_alice + g.n_bob) / 10
        self._assert_matches(g, y, cutoff)

    def test_oversized_cutoff_gives_empty_matrices(self):
        g, _ = chsh_game(3)
        rel = self._assert_matches(g, chshn_dual_y(3), cutoff=10.0)
        assert rel.u.shape == (0, 3) and rel.v.shape == (0, 6)


class TestIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_holds_on_perturbed_strategies(self, n):
        g, _ = chsh_game(n)
        base = canonical_chshn(n)
        rng = np.random.default_rng(100 + n)
        systems = [
            chshn_relations_form1(n),
            chshn_relations_form2(n),
            extract_relations(g, chshn_dual_y(n)),
        ]
        for _ in range(20):
            theta = float(rng.uniform(0.0, 1.2))
            s = perturb(base, theta, seed=int(rng.integers(10**6)), include_bob=True)
            for rel in systems:
                lhs, rhs, ok = check_identity(g, s, rel)
                assert ok
                assert abs(lhs - rhs) <= 1e-7

    def test_holds_on_fully_random_strategies(self, rng):
        g, _ = chsh_game(2)
        rel = chshn_relations_form1(2)
        for _ in range(20):
            d = int(rng.choice([2, 4]))
            psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            psi /= np.linalg.norm(psi)
            s = Strategy(
                tuple(random_observable(rng, d) for _ in range(2)),
                tuple(random_observable(rng, d) for _ in range(2)),
                psi,
            )
            lhs, rhs, ok = check_identity(g, s, rel)
            assert ok

    def test_canonical_both_sides_zero(self):
        g, _ = chsh_game(3)
        lhs, rhs, ok = check_identity(g, canonical_chshn(3), chshn_relations_form2(3))
        assert ok
        assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10

    def test_unnormalized_state_breaks_identity(self):
        # bypass Strategy validation to feed an invalid state on purpose
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        broken = object.__new__(Strategy)
        object.__setattr__(broken, "alice", s.alice)
        object.__setattr__(broken, "bob", s.bob)
        object.__setattr__(broken, "state", 0.9 * s.state)
        lhs, rhs, ok = check_identity(g, broken, chshn_relations_form1(2))
        assert not ok


class TestResidualValues:
    def test_all_identity_strategy_chsh2(self):
        g, _ = chsh_game(2)
        e = np.eye(2, dtype=complex)
        s = Strategy((e, e), (e, e), maximally_entangled(2))
        rel = chshn_relations_form1(2)
        r = residual(s, rel)
        assert r == pytest.approx(1.0 / RT2 - 0.5, abs=1e-9)
        eps = certify_epsilon(g, s, rel, 1.0 / RT2)
        assert eps == pytest.approx(1.0 - 0.5 * RT2, abs=1e-10)

    def test_perturbed_bias_deficit_equals_residual(self):
        g, _ = chsh_game(3)
        s = perturb(canonical_chshn(3), 0.1, seed=8)
        rel = chshn_relations_form2(3)
        deficit = 1.0 / RT2 - bias(g, s)
        assert residual(s, rel) == pytest.approx(deficit, abs=1e-8)

    def test_embedded_canonical_residual_vanishes(self):
        s = canonical_chshn(3)
        junk_a = [np.diag([1.0 + 0j, -1.0]) for _ in s.alice]
        junk_b = [np.eye(3, dtype=complex) for _ in s.bob]
        emb = embed_with_junk(s, 2, 3, junk_a, junk_b)
        assert residual(emb, chshn_relations_form1(3)) < 1e-12
        assert residual(emb, chshn_relations_form2(3)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual(canonical_chshn(2), chshn_relations_form1(3))

    def test_certify_epsilon_rejects_bad_beta(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        with pytest.raises(ValueError):
            certify_epsilon(g, s, chshn_relations_form1(2), 0.0)


def _pairwise_residual(s, rel):
    """Σ_k ‖(u_k·A⃗ ⊗ I)|ψ⟩ − (I ⊗ v_k·B⃗)|ψ⟩‖², one relation pair at a time."""
    mpsi = s.state
    total = 0.0
    for u, v in zip(rel.u, rel.v):
        ua = sum(u[i] * s.alice[i] for i in range(rel.n_alice))
        vb = sum(v[j] * s.bob[j] for j in range(rel.n_bob))
        diff = ua @ mpsi - mpsi @ vb.T
        total += float((np.abs(diff) ** 2).sum())
    return total


class TestResidualMatchesPairwiseReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_near_optimal_variants(self, n):
        g, _ = chsh_game(n)
        systems = [
            chshn_relations_form1(n),
            chshn_relations_form2(n),
            extract_relations(g, chshn_dual_y(n)),
        ]
        for s in near_optimal_variants(n):
            for rel in systems:
                want = _pairwise_residual(s, rel)
                assert want > 1e-4
                assert abs(residual(s, rel) - want) <= 1e-12

    def test_empty_system_gives_zero(self):
        g, _ = chsh_game(2)
        rel = extract_relations(g, chshn_dual_y(2), cutoff=10.0)
        assert rel.r == 0
        assert residual(perturb(canonical_chshn(2), 0.3, seed=1), rel) == 0.0


class TestRelationSystemType:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RelationSystem(np.ones(3), np.zeros((0, 2)), np.zeros((0, 2)))

    def test_rejects_pair_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RelationSystem(np.ones(4), np.ones((1, 3)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            RelationSystem(np.ones(4), np.ones((2, 2)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            RelationSystem(np.ones(4), np.ones(2), np.ones(2))

    def test_arrays_are_read_only_copies(self):
        ref = chshn_relations_form2(2)
        inputs = {name: getattr(ref, name).copy() for name in ("y", "u", "v")}
        rel = RelationSystem(**inputs)
        for name, arr in inputs.items():
            arr[0] = 5.0
            assert np.array_equal(getattr(rel, name), getattr(ref, name))
            with pytest.raises(ValueError):
                getattr(rel, name)[0] = 5.0

    @pytest.mark.parametrize("name", ["y", "u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, bad):
        ref = chshn_relations_form2(2)
        inputs = {k: getattr(ref, k).copy() for k in ("y", "u", "v")}
        inputs[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"^relation {name} contains non-finite"):
            RelationSystem(**inputs)

    @given(st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_r_counts_pairs(self, n):
        rel = chshn_relations_form1(n)
        assert rel.r == len(rel.u) == len(rel.v) == n * (n - 1)
        assert rel.u.shape == (rel.r, n) and rel.v.shape == (rel.r, n * (n - 1))
